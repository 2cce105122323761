"""Signatures for dagger traced and dagger compact closed theories.

A signature lists object variables and morphism variables.  Morphism
variables come in dagger pairs: declaring ``f : X -> Y`` also brings
``f† : Y -> X`` into scope, and the dagger is a fixed-point free
involution on morphism variables.  In a compact closed signature the
domain and codomain sorts may mention duals (``A*``); in a traced
monoidal signature they may not.

Duals are removed one morphism variable at a time: its
:attr:`MorphismVar.translation` moves starred factors to the other side
of the arrow and keeps a port table, so diagram construction can route
wires through the original positions.  It is computed on first use, so
compiling a term translates only the variables the term uses.
``int_translate`` collects the translations of a whole signature.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .errors import ParseError, SignatureError

COMPACT_CLOSED = "compact-closed"
TRACED_MONOIDAL = "traced-monoidal"

DAGGER_MARK = "†"

# Names with a grammar meaning.  Rejecting them keeps everything we
# print re-parseable.
RESERVED_NAMES = frozenset(
    {"id", "sym", "tr", "dagger", "eta", "eps", "x", "I",
     "object", "morphism", "kind", "use"}
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise SignatureError(f"invalid {what} name {name!r}")
    if name in RESERVED_NAMES:
        raise SignatureError(f"{what} name {name!r} is reserved")


@dataclass(frozen=True, order=True)
class ObjectVar:
    """An object variable such as ``A``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SignedObject:
    """An object variable together with an optional dual star."""

    base: ObjectVar
    starred: bool = False

    def star(self) -> SignedObject:
        return SignedObject(self.base, not self.starred)

    def __str__(self) -> str:
        return f"{self.base}*" if self.starred else str(self.base)


@dataclass(frozen=True)
class Sort:
    """A finite tensor product of (possibly starred) object variables.

    The empty product is the tensor unit and prints as ``I``.
    """

    factors: tuple[SignedObject, ...] = ()

    @classmethod
    def unit(cls) -> Sort:
        return cls(())

    @classmethod
    def of(cls, *objs: ObjectVar | SignedObject) -> Sort:
        factors = tuple(
            o if isinstance(o, SignedObject) else SignedObject(o) for o in objs
        )
        return cls(factors)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    @property
    def has_stars(self) -> bool:
        return any(f.starred for f in self.factors)

    def tensor(self, other: Sort) -> Sort:
        return Sort(self.factors + other.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[SignedObject]:
        return iter(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "I"
        return " x ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class MorphismVar:
    """A morphism variable with its sorts.

    ``daggered`` distinguishes the two members of a dagger pair; the
    undaggered member is the one that was declared.
    """

    name: str
    dom: Sort
    cod: Sort
    daggered: bool = False

    @property
    def display_name(self) -> str:
        return self.name + DAGGER_MARK if self.daggered else self.name

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.dom, self.cod, self.daggered))

    def __hash__(self) -> int:
        # The generated hash's value, computed once: morphism variables
        # key every matrix lookup, and their sorts are nested tuples.
        return self._hash

    def dagger(self) -> MorphismVar:
        return MorphismVar(self.name, self.cod, self.dom, not self.daggered)

    @cached_property
    def translation(self) -> tuple[MorphismVar, dict[Port, Port]]:
        """The star-free form of this variable and its port table,
        computed on first use.  A daggered variable translates to the
        dagger of its base's translation, with the table mirrored."""
        if not self.daggered:
            return _translate_var(self)
        g, table = self.dagger().translation
        return g.dagger(), {_flip(p): _flip(q) for p, q in table.items()}

    def undaggered(self) -> MorphismVar:
        return self.dagger() if self.daggered else self

    def __str__(self) -> str:
        return f"{self.display_name} : {self.dom} -> {self.cod}"


def _check_object(obj: ObjectVar, seen: set[str]) -> None:
    """Validate one object declaration against the names of the objects
    declared before it; add its name to those."""
    _check_name(obj.name, "object")
    if obj.name in seen:
        raise SignatureError(f"duplicate object {obj.name!r}")
    seen.add(obj.name)


def _check_morphism(f: MorphismVar, kind: str, obj_names: set[str],
                    mor_seen: set[str]) -> None:
    """Validate one declared morphism against the objects and the names
    of the morphisms declared before it; add its name to those."""
    _check_name(f.name, "morphism")
    if f.daggered:
        raise SignatureError(
            f"morphism {f.name!r} must be declared undaggered"
        )
    if f.name in mor_seen or f.name in obj_names:
        raise SignatureError(f"duplicate name {f.name!r}")
    for sf in tuple(f.dom) + tuple(f.cod):
        if sf.base.name not in obj_names:
            raise SignatureError(
                f"morphism {f.name!r} uses undeclared object {sf.base.name!r}"
            )
        if sf.starred and kind == TRACED_MONOIDAL:
            raise SignatureError(
                f"starred object {sf} in traced monoidal signature"
            )
    mor_seen.add(f.name)


@dataclass(frozen=True)
class Signature:
    """An immutable signature.

    ``base_morphisms`` holds only the declared (undaggered)
    representatives; daggered partners are derived on demand.  The
    declarations are validated on construction.
    """

    kind: str = COMPACT_CLOSED
    objects: tuple[ObjectVar, ...] = ()
    base_morphisms: tuple[MorphismVar, ...] = ()
    # Set only by parse_signature, which validates line by line.
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool) -> None:
        if self.kind not in (COMPACT_CLOSED, TRACED_MONOIDAL):
            raise SignatureError(f"unknown signature kind {self.kind!r}")
        if _checked:
            return
        obj_names: set[str] = set()
        for obj in self.objects:
            _check_object(obj, obj_names)
        mor_seen: set[str] = set()
        for f in self.base_morphisms:
            _check_morphism(f, self.kind, obj_names, mor_seen)

    @cached_property
    def _obj_index(self) -> Mapping[str, ObjectVar]:
        return {o.name: o for o in self.objects}

    @cached_property
    def _mor_index(self) -> Mapping[str, MorphismVar]:
        index: dict[str, MorphismVar] = {}
        for f in self.base_morphisms:
            index[f.display_name] = f
            index[f.dagger().display_name] = f.dagger()
        return index

    @property
    def morphisms(self) -> tuple[MorphismVar, ...]:
        """All morphism variables, each dagger pair adjacent."""
        out: list[MorphismVar] = []
        for f in self.base_morphisms:
            out.append(f)
            out.append(f.dagger())
        return tuple(out)

    def object(self, name: str) -> ObjectVar:
        try:
            return self._obj_index[name]
        except KeyError:
            raise SignatureError(f"unknown object {name!r}") from None

    def morphism(self, display_name: str) -> MorphismVar:
        try:
            return self._mor_index[display_name]
        except KeyError:
            raise SignatureError(f"unknown morphism {display_name!r}") from None

    def has_object(self, name: str) -> bool:
        return name in self._obj_index

    def has_morphism(self, display_name: str) -> bool:
        return display_name in self._mor_index


def declare_morphism(sig: Signature, name: str, dom: Sort, cod: Sort) -> Signature:
    """Extend ``sig`` with ``name : dom -> cod`` (and its dagger partner)."""
    f = MorphismVar(name, dom, cod)
    return Signature(sig.kind, sig.objects, sig.base_morphisms + (f,))


def fresh_morphism(sig: Signature, name: str, dom: Sort, cod: Sort) -> MorphismVar:
    """``name : dom -> cod`` for a name ``sig`` does not use, checked as
    :func:`declare_morphism` checks it, without building a signature."""
    f = MorphismVar(name, dom, cod)
    _check_morphism(f, sig.kind, set(sig._obj_index), set())
    return f


# -- star elimination -------------------------------------------------

# A port is (side, position): side "dom" or "cod", position 0-based.
Port = tuple[str, int]


@dataclass(frozen=True)
class TranslationTable:
    """Result of ``int_translate``: variable and port correspondences.

    ``ports[f][p]`` gives, for each port ``p`` of the original variable
    ``f``, the port of ``variables[f]`` that carries the same wire.
    """

    variables: Mapping[MorphismVar, MorphismVar]
    ports: Mapping[MorphismVar, Mapping[Port, Port]]

    def variable(self, f: MorphismVar) -> MorphismVar:
        return self.variables[f]

    def port(self, f: MorphismVar, p: Port) -> Port:
        return self.ports[f][p]


def _flip(p: Port) -> Port:
    side, i = p
    return ("cod" if side == "dom" else "dom", i)


def _translate_var(f: MorphismVar) -> tuple[MorphismVar, dict[Port, Port]]:
    # Only for undaggered variables: on a daggered one the port order
    # would differ from the mirror of its base's, which the dagger
    # must preserve (see MorphismVar.translation).
    # Starred domain factors move (unstarred) to the codomain, starred
    # codomain factors move to the domain.  Movers land after the
    # factors already on the receiving side kept from the domain, and
    # before the kept codomain factors, so ports stay in declaration
    # order on both sides.
    dom_keep = [(i, sf) for i, sf in enumerate(f.dom) if not sf.starred]
    dom_move = [(i, sf) for i, sf in enumerate(f.dom) if sf.starred]
    cod_keep = [(j, sf) for j, sf in enumerate(f.cod) if not sf.starred]
    cod_move = [(j, sf) for j, sf in enumerate(f.cod) if sf.starred]

    new_dom = Sort(tuple(sf for _, sf in dom_keep)
                   + tuple(sf.star() for _, sf in cod_move))
    new_cod = Sort(tuple(sf.star() for _, sf in dom_move)
                   + tuple(sf for _, sf in cod_keep))

    table: dict[Port, Port] = {}
    for rank, (i, _) in enumerate(dom_keep):
        table[("dom", i)] = ("dom", rank)
    for rank, (j, _) in enumerate(cod_move):
        table[("cod", j)] = ("dom", len(dom_keep) + rank)
    for rank, (i, _) in enumerate(dom_move):
        table[("dom", i)] = ("cod", rank)
    for rank, (j, _) in enumerate(cod_keep):
        table[("cod", j)] = ("cod", len(dom_move) + rank)

    return MorphismVar(f.name, new_dom, new_cod), table


def int_translate(sig: Signature) -> tuple[Signature, TranslationTable]:
    """Translate a compact closed signature to a traced monoidal one.

    Each morphism variable keeps its name but loses every star; the
    returned table records where each original port went.  The dagger
    is preserved: the translation of ``f†`` is the dagger of the
    translation of ``f``, with the port table mirrored accordingly.
    Traced signatures translate to themselves.  The table is collected
    from each variable's :attr:`MorphismVar.translation`; compiling a
    term reads those directly and does not call this.
    """
    translated = {f: f.translation for f in sig.morphisms}
    table = TranslationTable({f: g for f, (g, _) in translated.items()},
                             {f: ports for f, (_, ports) in translated.items()})
    return Signature(TRACED_MONOIDAL, sig.objects,
                     tuple(map(table.variable, sig.base_morphisms))), table


# -- text format -------------------------------------------------------

def code_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, code)`` per line of ``text`` that is not blank once
    its ``#`` comment is cut: the comment rule of every file format."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].strip()
        if code:
            yield lineno, code


def _parse_sort_text(text: str, objects: set[str], line: int) -> Sort:
    text = text.strip()
    if text == "I":
        return Sort.unit()
    factors: list[SignedObject] = []
    for k, part in enumerate(text.split()):
        if k % 2 == 1:
            if part != "x":
                raise ParseError(f"expected 'x' between sort factors, got {part!r}", line)
            continue
        starred = part.endswith("*")
        name = part[:-1] if starred else part
        if not _NAME_RE.match(name):
            raise ParseError(f"bad sort factor {part!r}", line)
        if name not in objects:
            raise ParseError(f"unknown object {name!r}", line)
        factors.append(SignedObject(ObjectVar(name), starred))
    if len(text.split()) % 2 == 0:
        raise ParseError("sort ends with dangling 'x'", line)
    return Sort(tuple(factors))


def parse_signature(text: str) -> Signature:
    """Parse the line-oriented signature format.

    Lines are ``object A``, ``morphism f : A* x B -> C`` and an
    optional leading ``kind traced-monoidal`` (the default kind is
    compact closed).  ``#`` starts a comment.
    """
    kind = COMPACT_CLOSED
    objects: list[ObjectVar] = []
    obj_names: set[str] = set()
    morphisms: list[tuple[int, str, str, str]] = []
    for lineno, code in code_lines(text):
        head, _, rest = code.partition(" ")
        rest = rest.strip()
        if head == "kind":
            if objects or morphisms:
                raise ParseError("kind must come first", lineno)
            if rest not in (COMPACT_CLOSED, TRACED_MONOIDAL):
                raise ParseError(f"unknown kind {rest!r}", lineno)
            kind = rest
        elif head == "object":
            if not _NAME_RE.match(rest):
                raise ParseError(f"bad object name {rest!r}", lineno)
            objects.append(ObjectVar(rest))
            try:
                _check_object(objects[-1], obj_names)
            except SignatureError as exc:
                raise ParseError(str(exc), lineno) from None
        elif head == "morphism":
            m = re.match(r"([^:]+):(.+)->(.+)\Z", rest)
            if not m:
                raise ParseError("expected 'morphism NAME : SORT -> SORT'", lineno)
            morphisms.append((lineno, m.group(1).strip(), m.group(2), m.group(3)))
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno)
    declared: list[MorphismVar] = []
    mor_seen: set[str] = set()
    for lineno, name, dom_text, cod_text in morphisms:
        f = MorphismVar(name, _parse_sort_text(dom_text, obj_names, lineno),
                        _parse_sort_text(cod_text, obj_names, lineno))
        try:
            _check_morphism(f, kind, obj_names, mor_seen)
        except SignatureError as exc:
            raise ParseError(str(exc), lineno) from None
        declared.append(f)
    return Signature(kind, tuple(objects), tuple(declared), _checked=True)


def morphism_line(f: MorphismVar) -> str:
    return f"morphism {f.name} : {f.dom} -> {f.cod}"


def signature_to_text(sig: Signature) -> str:
    """Print a signature in the format accepted by ``parse_signature``."""
    lines = [f"kind {sig.kind}"]
    lines.extend(f"object {o.name}" for o in sig.objects)
    lines.extend(morphism_line(f) for f in sig.base_morphisms)
    return "\n".join(lines) + "\n"
