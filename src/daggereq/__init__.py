"""Equality of dagger compact closed terms in the free theory.

Terms compile to closed string diagrams; two terms are equal exactly
when their diagrams are isomorphic.  The isomorphism count can also be
read off a polynomial matrix interpretation, and inequalities come
with concrete separating matrices over the Gaussian integers.
"""

from .errors import (
    DaggereqError,
    DiagramError,
    InterpretationError,
    ParseError,
    SignatureError,
    TypeCheckError,
)
from .signature import (
    COMPACT_CLOSED,
    TRACED_MONOIDAL,
    MorphismVar,
    ObjectVar,
    Signature,
    SignedObject,
    Sort,
    TranslationTable,
    declare_morphism,
    int_translate,
    morphism_line,
    parse_signature,
    signature_to_text,
)
from .terms import (
    Compose,
    Counit,
    Dagger,
    Id,
    Symmetry,
    Tensor as TensorTerm,
    Term,
    Trace,
    Unit,
    Var,
    close_pair,
    close_term,
    parse_term,
    parse_term_file,
    term_to_text,
    type_check,
)
from .diagram import (
    Diagram,
    DiagramIso,
    EqualityResult,
    compile_closed,
    compile_term,
    decide_equal,
    diagram_to_text,
    export_dot,
    find_isos,
    iso_count,
    mirror,
    parse_diagram,
)
from .scalars import (
    ComplexFloatRing,
    ConjPolynomial,
    ConjPolynomialRing,
    GaussianInt,
    GaussianIntegerRing,
    Monomial,
    ScalarRing,
    make_ring,
)
from .semantics import (
    Contraction,
    Interpretation,
    Tensor,
    Witness,
    all_boxes_monomial,
    denote,
    denote_naive,
    denote_sweep,
    find_witness,
    interpretation_to_text,
    iso_count_semantic,
    m_interpretation,
    parse_interpretation,
    random_interpretation,
)

__version__ = "0.1.0"
