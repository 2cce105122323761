import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from daggereq import (
    Compose,
    Counit,
    Dagger,
    Id,
    ParseError,
    Symmetry,
    TensorTerm,
    Trace,
    TypeCheckError,
    Unit,
    Var,
    close_pair,
    close_term,
    parse_signature,
    parse_term,
    parse_term_file,
    term_to_text,
    type_check,
)
from daggereq.signature import Sort, SignedObject, ObjectVar
from daggereq.terms import use_path

import genutil

SIG = parse_signature("""\
object A
object B
morphism f : B -> A x A
morphism g : A x B -> B x A
morphism h : A -> A
""")

A = ObjectVar("A")
B = ObjectVar("B")


def test_parse_basics():
    t = parse_term("f ; dagger(f)", SIG)
    assert t == Compose(Var("f"), Dagger(Var("f")))
    assert parse_term("f†", SIG) == Var("f†")
    assert parse_term("id[I]", SIG) == Id(Sort.unit())
    assert parse_term("tr[A x B](sym[A,B] ; sym[B,A])", SIG) == Trace(
        Sort.of(A, B), Compose(Symmetry(Sort.of(A), Sort.of(B)),
                               Symmetry(Sort.of(B), Sort.of(A))))


def test_precedence_tensor_binds_tighter_than_composition():
    t = parse_term("h ; h x h", SIG)
    assert t == Compose(Var("h"), TensorTerm(Var("h"), Var("h")))
    u = parse_term("(h ; h) x h", SIG)
    assert u == TensorTerm(Compose(Var("h"), Var("h")), Var("h"))
    assert t != u


def test_both_operators_associate_left():
    assert parse_term("h ; h ; h", SIG) == Compose(Compose(Var("h"), Var("h")), Var("h"))
    assert parse_term("h x h x h", SIG) == TensorTerm(TensorTerm(Var("h"), Var("h")), Var("h"))


def test_parse_errors_point_at_the_problem():
    with pytest.raises(ParseError) as exc:
        parse_term("f ; qq", SIG)
    assert "qq" in str(exc.value) and "1:5" in str(exc.value)
    with pytest.raises(ParseError):
        parse_term("tr[A](h", SIG)
    with pytest.raises(ParseError):
        parse_term("h ;", SIG)
    with pytest.raises(ParseError):
        parse_term("h h", SIG)
    with pytest.raises(ParseError):
        parse_term("id[Q]", SIG)
    with pytest.raises(ParseError):
        parse_term("dagger h", SIG)
    with pytest.raises(ParseError):
        parse_term("f @ f", SIG)


def test_multiline_terms_report_position():
    with pytest.raises(ParseError) as exc:
        parse_term("h ;\n  oops", SIG)
    assert "2:3" in str(exc.value)


def test_type_check_of_generators():
    assert type_check(Var("f"), SIG) == (Sort.of(B), Sort.of(A, A))
    assert type_check(Var("f†"), SIG) == (Sort.of(A, A), Sort.of(B))
    assert type_check(parse_term("sym[A,B]", SIG), SIG) == (Sort.of(A, B), Sort.of(B, A))
    assert type_check(parse_term("id[A x B]", SIG), SIG) == (Sort.of(A, B), Sort.of(A, B))
    assert type_check(parse_term("dagger(f ; dagger(f))", SIG), SIG) == (
        Sort.of(B), Sort.of(B))


def test_type_check_rejects_bad_composition():
    with pytest.raises(TypeCheckError) as exc:
        type_check(parse_term("f ; f", SIG), SIG)
    assert "A x A" in str(exc.value) and "B" in str(exc.value)


def test_trace_needs_a_matching_suffix_on_both_sides():
    assert type_check(parse_term("tr[A](h)", SIG), SIG) == (Sort.unit(), Sort.unit())
    assert type_check(parse_term("tr[B](g ; sym[B,A])", SIG), SIG) == (
        Sort.of(A), Sort.of(A))
    with pytest.raises(TypeCheckError):
        type_check(parse_term("tr[B](h)", SIG), SIG)
    with pytest.raises(TypeCheckError):
        type_check(parse_term("tr[A](g)", SIG), SIG)  # ends in B x A vs A x B
    with pytest.raises(TypeCheckError):
        type_check(parse_term("tr[A x A](f)", SIG), SIG)  # domain too short


def test_units_only_in_compact_closed_signatures():
    cc = parse_signature("object A\nmorphism h : A -> A")
    t = parse_term("eta[A] ; eps[A*]", cc)
    assert t == Compose(Unit(SignedObject(A)), Counit(SignedObject(A, True)))
    assert type_check(t, cc) == (Sort.unit(), Sort.unit())
    assert type_check(Unit(SignedObject(A)), cc) == (
        Sort.unit(), Sort((SignedObject(A, True), SignedObject(A))))
    traced = parse_signature("kind traced-monoidal\nobject A\nmorphism h : A -> A")
    with pytest.raises(TypeCheckError):
        type_check(parse_term("eta[A]", traced), traced)


def test_close_term_adds_one_fresh_pair():
    t = parse_term("f", SIG)
    closed, sig2 = close_term(t, SIG)
    assert type_check(closed, sig2) == (Sort.unit(), Sort.unit())
    assert sig2.morphism("close_in").cod == Sort.of(B)
    assert sig2.morphism("close_out").dom == Sort.of(A, A)
    assert closed == Compose(Compose(Var("close_in"), t), Var("close_out"))


def test_close_term_keeps_closed_terms_and_avoids_name_clashes():
    t = parse_term("tr[A](h)", SIG)
    assert close_term(t, SIG) == (t, SIG)
    sig = parse_signature("""\
object A
morphism h : A -> A
morphism close_in : I -> A
""")
    closed, sig2 = close_term(parse_term("h", sig), sig)
    assert sig2.has_morphism("close_in1") and sig2.has_morphism("close_out1")


def test_close_pair_shares_the_closure_variables():
    t1 = parse_term("g", SIG)
    t2 = parse_term("sym[A,B] ; sym[B,A] ; g", SIG)
    c1, c2, sig2 = close_pair(t1, t2, SIG)
    names = [v.var_name for v in (c1.first.first, c1.then)]
    assert names == ["close_in", "close_out"]
    assert c2.first.first == c1.first.first and c2.then == c1.then
    with pytest.raises(TypeCheckError):
        close_pair(parse_term("f", SIG), parse_term("g", SIG), SIG)


def test_half_open_terms_get_one_variable_only():
    sig = parse_signature(
        "object A\nobject B\nmorphism f : B -> A x A\nmorphism e : I -> B")
    closed, sig2 = close_term(parse_term("e ; f", sig), sig)
    assert type_check(closed, sig2) == (Sort.unit(), Sort.unit())
    assert sig2.has_morphism("close_out")
    assert not sig2.has_morphism("close_in")


def test_print_golden():
    t = parse_term("tr[B](f ; dagger(f) ; tr[A](sym[B,A] ; g))", SIG)
    assert term_to_text(t) == "tr[B](f ; dagger(f) ; tr[A](sym[B,A] ; g))"
    u = parse_term("f ; (h x (h ; h)) ; dagger(f)", SIG)
    assert term_to_text(u) == "f ; h x (h ; h) ; dagger(f)"
    assert parse_term(term_to_text(u), SIG) == u
    assert term_to_text(parse_term("eta[A*]", parse_signature(
        "object A\nmorphism h : A -> A"))) == "eta[A*]"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_print_parse_round_trip_on_random_terms(seed, starred):
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    t = genutil.random_term(rng, sig)
    text = term_to_text(t)
    assert parse_term(text, sig) == t
    assert parse_term(term_to_text(parse_term(text, sig)), sig) == t


# A printed term cut into pieces: whitespace, a comment, a name or one
# character.  The mutations below edit these pieces.
_PIECE = re.compile(r"\s+|#[^\n]*|[A-Za-z_][A-Za-z0-9_']*†?|.", re.S)
_BAD_CHARS = ["@", "3", "†", "é", "'", "\x00", "$", "."]
_SYNTAX = ["(", ")", ";", "x", "dagger", "tr", "id", "sym", "eta", "eps", "[", "]", ",",
           "*", "I", "A", "B", "f", "k†", "h", "nope", "use", "\n", " # c\n", "\r\n"]


def _mutate_tokens(text: str, rng: random.Random) -> str:
    """``text`` with one token deleted, duplicated or swapped with
    another, or with a bad character or a piece of syntax inserted."""
    pieces = _PIECE.findall(text)
    k, other = rng.randrange(len(pieces)), rng.randrange(len(pieces))
    op = rng.randrange(5)
    if op == 0:
        del pieces[k]
    elif op == 1:
        pieces.insert(k, pieces[k])
    elif op == 2:
        pieces[k], pieces[other] = pieces[other], pieces[k]
    else:
        pieces.insert(k, rng.choice(_BAD_CHARS if op == 3 else _SYNTAX))
    return "".join(pieces)


def _parsed(parse, text, sig):
    """The printed tree, or the error's message, line and column.
    Trees are compared printed: ``==`` on deep terms recurses."""
    try:
        return term_to_text(parse(text, sig))
    except ParseError as exc:
        return str(exc), exc.line, exc.col


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans(), st.integers(0, 3))
def test_the_parser_agrees_with_recursive_descent(seed, starred, mutations):
    # Printed random terms, well typed or not, and token-level mutants
    # of them: the explicit-stack parser and the recursive oracle build
    # the same tree or raise the same error at the same place.
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    typed = rng.random() < 0.7
    make = genutil.random_term if typed else genutil.random_untyped_term
    printed = text = term_to_text(make(rng, sig, steps=rng.randint(1, 12)))
    for _ in range(mutations):
        text = _mutate_tokens(text, rng)
    expected = _parsed(genutil.parse_term_recursive, text, sig)
    assert _parsed(parse_term, text, sig) == expected
    if typed and mutations == 0:
        assert expected == printed


def test_equal_sorts_and_objects_are_one_object():
    # Within one parse, equal leaves, sorts and signed objects are shared.
    sig = genutil.starred_signature()
    t = parse_term("tr[D](id[A x D*] x eta[D*] ; id[A x D*] x sym[D*,D] x id[I])", sig)
    ids, eta = t.body.first.left, t.body.first.right
    sym = t.body.then.left.right
    assert t.body.then.left.left is ids
    assert eta.obj is ids.sort.factors[1] is sym.left.factors[0]
    assert t.over is sym.right


def test_parse_term_file_with_use_line():
    text = "# comment first\nuse example.sig\ntr[A](\n  h\n)\n"
    assert use_path(text) == "example.sig"
    term, sig = parse_term_file(text, SIG)
    assert term == Trace(Sort.of(A), Var("h"))
    assert sig == SIG


def test_parse_term_file_explicit_signature_wins():
    term, sig = parse_term_file("use nowhere.sig\nh ; h", SIG)
    assert sig == SIG


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_term_file_errors_give_file_positions(newline):
    text = newline.join(["# c", "use s.sig", "", "  # c", "h ;", "  ; h"])
    with pytest.raises(ParseError, match=r"^6:3: expected a term, got ';'$"):
        parse_term_file(text, SIG)
    with pytest.raises(ParseError, match=r"^2:2: unexpected character '\.'$"):
        parse_term_file(newline.join(["h", "h.", "use s.sig"]), SIG)


def test_use_path_reads_only_the_first_code_line():
    assert use_path("# comment\n\n  use  a/b.sig  # note\nh\n") == "a/b.sig"
    assert use_path("h\nuse a.sig\n") is None
    assert use_path("user ; h\n") is None
    assert use_path("use\n") is None
    assert use_path("") is None
