"""Terms over a signature: syntax, parsing, printing, type checking.

Terms are built from morphism variables with sequential composition
``;``, tensor ``x``, identities, symmetries, trace, dagger, and (in
compact closed signatures) the unit ``eta`` and counit ``eps`` of
duals.  ``;`` reads left to right: ``f ; g`` applies ``f`` first.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Union

from .errors import ParseError, TypeCheckError
from .signature import (
    RESERVED_NAMES,
    Signature,
    SignedObject,
    Sort,
    TRACED_MONOIDAL,
    code_lines,
    declare_morphism,
)


@dataclass(frozen=True)
class Var:
    var_name: str


@dataclass(frozen=True)
class Id:
    sort: Sort


@dataclass(frozen=True)
class Compose:
    first: Term
    then: Term


@dataclass(frozen=True)
class Tensor:
    left: Term
    right: Term


@dataclass(frozen=True)
class Symmetry:
    left: Sort
    right: Sort


@dataclass(frozen=True)
class Trace:
    over: Sort
    body: Term


@dataclass(frozen=True)
class Dagger:
    body: Term


@dataclass(frozen=True)
class Unit:
    obj: SignedObject


@dataclass(frozen=True)
class Counit:
    obj: SignedObject


Term = Union[Var, Id, Compose, Tensor, Symmetry, Trace, Dagger, Unit, Counit]


# -- the walk ----------------------------------------------------------

def _fold(t: Term, rule: Callable[[Term, list], Any]) -> Any:
    """The value of ``t`` bottom-up: ``rule(node, values)`` gets the
    values of the node's children, left before right.

    The only walk over terms and the only code that knows a node's
    children.  It keeps its own stacks, so depth is limited by memory.
    """
    todo: list = [t]
    values: list = []
    while todo:
        node = todo.pop()
        if type(node) is tuple:  # the children of node[0] have their values
            node, arity = node
            args = values[-arity:]
            del values[-arity:]
            values.append(rule(node, args))
        elif isinstance(node, Compose):
            todo += ((node, 2), node.then, node.first)
        elif isinstance(node, Tensor):
            todo += ((node, 2), node.right, node.left)
        elif isinstance(node, (Trace, Dagger)):
            todo += ((node, 1), node.body)
        else:
            values.append(rule(node, ()))
    return values[0]


# -- type checking -----------------------------------------------------

def _sorts(sig: Signature, t: Term,
           args: list[tuple[Sort, Sort]]) -> tuple[Sort, Sort]:
    """The typing rule: ``(dom, cod)`` of ``t`` from its children's."""
    if isinstance(t, Compose):
        (dom1, cod1), (dom2, cod2) = args
        if cod1 != dom2:
            raise TypeCheckError(
                f"sort mismatch in composition: {cod1} composed into {dom2}"
            )
        return dom1, cod2
    if isinstance(t, Id):
        return t.sort, t.sort
    if isinstance(t, Symmetry):
        return t.left.tensor(t.right), t.right.tensor(t.left)
    if isinstance(t, Var):
        if not sig.has_morphism(t.var_name):
            raise TypeCheckError(f"unknown morphism {t.var_name!r}")
        f = sig.morphism(t.var_name)
        return f.dom, f.cod
    if isinstance(t, Tensor):
        (dom1, cod1), (dom2, cod2) = args
        return dom1.tensor(dom2), cod1.tensor(cod2)
    if isinstance(t, Trace):
        (dom, cod), = args
        k = len(t.over)
        for side, s in (("domain", dom), ("codomain", cod)):
            if k and (len(s) < k or s.factors[-k:] != t.over.factors):
                raise TypeCheckError(
                    f"trace over {t.over}: {side} {s} does not end with it")
        return Sort(dom.factors[: len(dom) - k]), Sort(cod.factors[: len(cod) - k])
    if isinstance(t, Dagger):
        (dom, cod), = args
        return cod, dom
    if not isinstance(t, (Unit, Counit)):
        raise TypeError(f"not a term: {t!r}")
    if sig.kind == TRACED_MONOIDAL:
        word = "eta" if isinstance(t, Unit) else "eps"
        raise TypeCheckError(f"{word} is not available in a traced monoidal signature")
    if isinstance(t, Unit):
        return Sort.unit(), Sort((t.obj.star(), t.obj))
    return Sort((t.obj, t.obj.star())), Sort.unit()


def type_check(t: Term, sig: Signature) -> tuple[Sort, Sort]:
    """Return ``(dom, cod)`` of ``t`` or raise :class:`TypeCheckError`."""
    return _fold(t, lambda node, args: _sorts(sig, node, args))


def close_term(t: Term, sig: Signature) -> tuple[Term, Signature]:
    """Wrap ``t : X -> Y`` into a closed term ``in ; t ; out : I -> I``.

    ``in : I -> X`` and ``out : Y -> I`` are fresh morphism variables
    named by :func:`closure_names` and added to the returned signature.
    Closed terms are returned as is.
    """
    return _close([t], sig)


def close_pair(t1: Term, t2: Term, sig: Signature) -> tuple[Term, Term, Signature]:
    """Close two terms of the same type with one shared pair of variables.

    Sharing matters: the closures must use equal labels on both sides,
    otherwise the closed terms could never be equal.
    """
    return _close([t1, t2], sig)


def common_type(types: list[tuple[Sort, Sort]]) -> tuple[Sort, Sort]:
    """The one type ``(dom, cod)`` of terms to be compared."""
    (dom, cod), *others = types
    for dom2, cod2 in others:
        if (dom, cod) != (dom2, cod2):
            raise TypeCheckError(
                f"cannot compare {dom} -> {cod} with {dom2} -> {cod2}"
            )
    return dom, cod


def closure_names(sig: Signature) -> tuple[str, str]:
    """The first pair ``close_inK``, ``close_outK`` that ``sig`` does
    not use as names, with ``K`` empty, then 1, 2, ..."""
    for k in itertools.count():
        suffix = str(k) if k else ""
        name_in, name_out = f"close_in{suffix}", f"close_out{suffix}"
        if not any(sig.has_morphism(name) or sig.has_object(name)
                   for name in (name_in, name_out)):
            return name_in, name_out


def _close(ts: list[Term], sig: Signature) -> tuple:
    """Close terms of one type as ``in ; t ; out`` with one shared pair
    of fresh variables; return the closed terms, then the signature.
    Closed terms come back as they are."""
    dom, cod = common_type([type_check(t, sig) for t in ts])
    if dom.is_unit and cod.is_unit:
        return (*ts, sig)
    name_in, name_out = closure_names(sig)
    if not dom.is_unit:
        sig = declare_morphism(sig, name_in, Sort.unit(), dom)
        ts = [Compose(Var(name_in), t) for t in ts]
    if not cod.is_unit:
        sig = declare_morphism(sig, name_out, cod, Sort.unit())
        ts = [Compose(t, Var(name_out)) for t in ts]
    return (*ts, sig)


# -- printing ----------------------------------------------------------

_COMPOSE, _TENSOR, _ATOM = 1, 2, 3


def term_to_text(t: Term) -> str:
    """Print ``t``; ``parse_term`` reads the result back verbatim."""
    return "".join(_fold(t, _text)[1])


def _text(t: Term, args: list[tuple[int, deque[str]]]) -> tuple[int, deque[str]]:
    """``(level, pieces)`` of ``t`` from its children's.  A child goes
    in parentheses when its level is below its slot: the parent's level
    on the left, one more on the right.  Two children join into the
    longer one's pieces, so printing is O(n log n) however terms nest.
    """
    if isinstance(t, (Compose, Tensor)):
        level, sep = (_COMPOSE, " ; ") if isinstance(t, Compose) else (_TENSOR, " x ")
        (left_level, left), (right_level, right) = args
        for pieces, below in ((left, left_level < level), (right, right_level <= level)):
            if below:
                pieces.appendleft("(")
                pieces.append(")")
        if len(left) < len(right):
            right.appendleft(sep)
            right.extendleft(reversed(left))
            return level, right
        left.append(sep)
        left.extend(right)
        return level, left
    if isinstance(t, (Trace, Dagger)):
        (_, body), = args
        body.appendleft(f"tr[{t.over}](" if isinstance(t, Trace) else "dagger(")
        body.append(")")
        return _ATOM, body
    if isinstance(t, Var):
        text = t.var_name
    elif isinstance(t, Id):
        text = f"id[{t.sort}]"
    elif isinstance(t, Symmetry):
        text = f"sym[{t.left},{t.right}]"
    elif isinstance(t, Unit):
        text = f"eta[{t.obj}]"
    elif isinstance(t, Counit):
        text = f"eps[{t.obj}]"
    else:
        raise TypeError(f"not a term: {t!r}")
    return _ATOM, deque([text])


# -- parsing -----------------------------------------------------------

# One match per token: the whitespace and comments before it, then a
# name, one other character (punctuation, or a bad one no rule accepts)
# or, at the end of the input, nothing.  A comment ends at any line
# boundary ``str.splitlines`` knows, as term file lines do for use_path.
_TOKEN_RE = re.compile(
    r"((?:\s+|#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)*)"
    r"([A-Za-z_][A-Za-z0-9_']*(?:†)?|.|)", re.S)
_BAD_RE = re.compile(r"[^A-Za-z_;()\[\],*]")
# ``tok in _PUNCT`` is true for punctuation and the empty end token.
_PUNCT = ";()[],*"


def parse_term(src: str, sig: Signature) -> Term:
    """Parse a term; names are resolved against ``sig`` while parsing.

    One ``findall`` of :data:`_TOKEN_RE` cuts ``src`` into tokens, and
    one loop reads them with a stack of the brackets still open, ``(``,
    ``tr[S](`` and ``dagger(``, so depth is limited by memory.  ``;``
    binds loosest, then ``x``; both associate to the left.  The keyword
    ``x`` doubles as the tensor operator.  Each distinct leaf text, such
    as ``id[A x B]`` or ``f``, is read once per parse, and so is each
    sort and signed object: equal ones are one object.
    """
    pairs = _TOKEN_RE.findall(src)
    # A "]" past the end token, so that every search for one finds it.
    toks = [tok for _, tok in pairs] + ["]"]
    objects: dict = {}  # (name, starred) -> SignedObject
    sorts: dict = {}  # the sort's tokens -> Sort
    leaves: dict = {}  # the leaf's tokens -> (its value, its length)

    def fail(k: int, message: str) -> ParseError:
        """The error at token ``k``, or at the first bad character if there
        is one, which comes first; offsets are counted only here."""
        pos = at = 0
        for i, (skip, tok) in enumerate(pairs):
            pos += len(skip)
            if _BAD_RE.match(tok):
                message, at = f"unexpected character {tok!r}", pos
                break
            if i == k:
                at = pos
            pos += len(tok)
        return ParseError(message, src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at))

    def expect(i: int, want: str) -> int:
        if toks[i] != want:
            raise fail(i, f"expected {want!r}, got {toks[i] or 'end of input'!r}")
        return i + 1

    def signed(i: int) -> tuple[SignedObject, int]:
        name = toks[i]
        if name in _PUNCT:
            raise fail(i, f"expected 'name', got {name or 'end of input'!r}")
        if not sig.has_object(name):
            raise fail(i, f"unknown object {name!r}")
        starred = toks[i + 1] == "*"
        obj = SignedObject(sig.object(name), starred)
        return objects.setdefault((name, starred), obj), i + 1 + starred

    def sort(i: int, stops: tuple[str, ...]) -> tuple[Sort, int]:
        start, factors = i, []
        if toks[i] == "I":
            i += 1
        else:
            factor, i = signed(i)
            factors.append(factor)
            while toks[i] == "x":
                factor, i = signed(i + 1)
                factors.append(factor)
            if toks[i] not in stops:
                raise fail(i, f"unexpected {toks[i]!r} in sort")
        return sorts.setdefault(tuple(toks[start:i]), Sort(tuple(factors))), i

    def read(i: int) -> tuple[Any, int]:
        """The leaf term, trace sort or ``Dagger`` at ``i``, and the index after."""
        word = toks[i]
        if word in ("id", "tr"):
            s, i = sort(expect(i + 1, "["), ("]",))
            return (Id(s) if word == "id" else s), expect(i, "]")
        if word == "sym":
            left, i = sort(expect(i + 1, "["), (",", "]"))
            right, i = sort(expect(i, ","), ("]",))
            return Symmetry(left, right), expect(i, "]")
        if word in ("eta", "eps"):
            obj, i = signed(expect(i + 1, "["))
            return (Unit(obj) if word == "eta" else Counit(obj)), expect(i, "]")
        if word == "dagger":
            return Dagger, i + 1
        if word in _PUNCT:
            raise fail(i, f"expected a term, got {word or 'end of input'!r}")
        if word in RESERVED_NAMES:
            raise fail(i, f"unexpected keyword {word!r}")
        if not sig.has_morphism(word):
            raise fail(i, f"unknown morphism {word!r}")
        return Var(word), i + 1

    def leaf(i: int) -> tuple[Any, int]:
        """:func:`read`, once per distinct text."""
        key = toks[i]
        if key in ("id", "sym", "tr", "eta", "eps"):
            key = tuple(toks[i:toks.index("]", i)])
        if key not in leaves:
            value, end = read(i)
            leaves[key] = value, end - i
        value, length = leaves[key]
        return value, i + length

    stack: list[tuple[Any, Any, Any]] = []  # (wrap, composite, tensor) per open bracket
    comp = tens = None
    i = 0
    while True:
        if toks[i] in ("(", "dagger", "tr"):
            wrap, i = (None, i) if toks[i] == "(" else leaf(i)
            stack.append((wrap, comp, tens))
            comp = tens = None
            i = expect(i, "(")
            continue
        t, i = leaf(i)
        while True:  # t is an operand; read the operator after it
            tens = t if tens is None else Tensor(tens, t)
            tok = toks[i]
            if tok == "x":
                break
            comp = tens if comp is None else Compose(comp, tens)
            tens = None
            if tok == ";":
                break
            if not stack:
                if tok:
                    raise fail(i, f"trailing input {tok!r}")
                return comp
            if tok != ")":
                raise fail(i, f"expected ')', got {tok or 'end of input'!r}")
            body, (wrap, comp, tens) = comp, stack.pop()
            t = body if wrap is None else Dagger(body) if wrap is Dagger else Trace(wrap, body)
            i += 1
        i += 1


def _split_use(text: str) -> tuple[str | None, str]:
    """The path of a term file's ``use PATH`` line, its first code line,
    and the file with that line blanked, so positions stay file positions."""
    lineno, code = next(code_lines(text), (0, ""))
    if not code.startswith("use "):
        return None, text
    lines = text.splitlines(keepends=True)
    raw = lines[lineno - 1]
    lines[lineno - 1] = raw[len(raw.splitlines()[0]):]  # keep the line break
    return code[4:].strip(), "".join(lines)


def use_path(text: str) -> str | None:
    """The path of a term file's ``use PATH`` line: its first code line."""
    return _split_use(text)[0]


def parse_term_file(text: str, sig: Signature | None = None,
                    load_signature=None) -> tuple[Term, Signature]:
    """Parse a term file: optional ``use PATH`` line, then one term.

    The term may span several lines and carry ``#`` comments; error
    positions are lines and columns of the file.  When ``sig`` is given
    it wins over any ``use`` line; otherwise the ``use`` path is
    resolved through the ``load_signature`` callback.  The CLI always
    passes ``sig``: it resolves the ``use`` lines of all its term files
    first and requires those that load to agree.
    """
    path, body = _split_use(text)
    if sig is None:
        if path is None:
            raise ParseError("no signature: term file has no 'use' line")
        if load_signature is None:
            raise ParseError(f"cannot resolve 'use {path}' without a loader")
        sig = load_signature(path)
    return parse_term(body, sig), sig
