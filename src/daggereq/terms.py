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
from typing import Any, Callable, NamedTuple, Union

from .errors import ParseError, TypeCheckError
from .signature import (
    RESERVED_NAMES,
    Signature,
    SignedObject,
    Sort,
    TRACED_MONOIDAL,
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


def close_term(t: Term, sig: Signature,
               prefix: str = "close") -> tuple[Term, Signature]:
    """Wrap ``t : X -> Y`` into a closed term ``in ; t ; out : I -> I``.

    ``in : I -> X`` and ``out : Y -> I`` are fresh morphism variables
    added to the returned signature.  Closed terms are returned as is.
    """
    return _close([t], sig, prefix)


def close_pair(t1: Term, t2: Term, sig: Signature,
               prefix: str = "close") -> tuple[Term, Term, Signature]:
    """Close two terms of the same type with one shared pair of variables.

    Sharing matters: the closures must use equal labels on both sides,
    otherwise the closed terms could never be equal.
    """
    return _close([t1, t2], sig, prefix)


def common_type(types: list[tuple[Sort, Sort]]) -> tuple[Sort, Sort]:
    """The one type ``(dom, cod)`` of terms to be compared."""
    (dom, cod), *others = types
    for dom2, cod2 in others:
        if (dom, cod) != (dom2, cod2):
            raise TypeCheckError(
                f"cannot compare {dom} -> {cod} with {dom2} -> {cod2}"
            )
    return dom, cod


def closure_names(sig: Signature, prefix: str = "close") -> tuple[str, str]:
    """The first pair ``prefix_inK``, ``prefix_outK`` that ``sig`` does
    not use as names, with ``K`` empty, then 1, 2, ..."""
    for k in itertools.count():
        suffix = str(k) if k else ""
        name_in, name_out = f"{prefix}_in{suffix}", f"{prefix}_out{suffix}"
        if not any(sig.has_morphism(name) or sig.has_object(name)
                   for name in (name_in, name_out)):
            return name_in, name_out


def _close(ts: list[Term], sig: Signature, prefix: str) -> tuple:
    """Close terms of one type as ``in ; t ; out`` with one shared pair
    of fresh variables; return the closed terms, then the signature.
    Closed terms come back as they are."""
    dom, cod = common_type([type_check(t, sig) for t in ts])
    if dom.is_unit and cod.is_unit:
        return (*ts, sig)
    name_in, name_out = closure_names(sig, prefix)
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

class _Token(NamedTuple):
    kind: str
    text: str
    pos: int  # offset into the source


# A comment ends at any line boundary ``str.splitlines`` knows, as the
# lines of a term file do for ``use_path``.
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*(?:†)?)"
    r"|(?P<punct>[;()\[\],*])"
    r"|(?P<bad>.)"
)


def _error(message: str, src: str, pos: int) -> ParseError:
    """A :class:`ParseError` at the line and column of offset ``pos``."""
    line = src.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - src.rfind("\n", 0, pos))


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind in ("name", "punct"):
            text = m.group()
            tokens.append(_Token("name" if kind == "name" else text, text, m.start()))
        elif kind == "bad":
            raise _error(f"unexpected character {m.group()!r}", src, m.start())
    tokens.append(_Token("eof", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence: ``;`` binds loosest, then ``x``; both associate to the
    left.  The keyword ``x`` doubles as the tensor operator.
    """

    def __init__(self, src: str, sig: Signature):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.sig = sig

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise _error(f"expected {kind!r}, got {shown!r}", self.src, tok.pos)
        return tok

    def fail(self, message: str) -> ParseError:
        return _error(message, self.src, self.peek().pos)

    def parse(self) -> Term:
        t = self.composition()
        if self.peek().kind != "eof":
            raise self.fail(f"trailing input {self.peek().text!r}")
        return t

    def composition(self) -> Term:
        t = self.tensor()
        while self.peek().kind == ";":
            self.next()
            t = Compose(t, self.tensor())
        return t

    def tensor(self) -> Term:
        t = self.atom()
        while self.peek().kind == "name" and self.peek().text == "x":
            self.next()
            t = Tensor(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            t = self.composition()
            self.expect(")")
            return t
        if tok.kind != "name":
            raise self.fail(f"expected a term, got {tok.text or 'end of input'!r}")
        word = tok.text
        if word == "id":
            self.next()
            return Id(self.bracket_sort())
        if word == "sym":
            self.next()
            self.expect("[")
            left = self.sort(stop={",", "]"})
            self.expect(",")
            right = self.sort(stop={"]"})
            self.expect("]")
            return Symmetry(left, right)
        if word == "tr":
            self.next()
            over = self.bracket_sort()
            self.expect("(")
            body = self.composition()
            self.expect(")")
            return Trace(over, body)
        if word == "dagger":
            self.next()
            self.expect("(")
            body = self.composition()
            self.expect(")")
            return Dagger(body)
        if word in ("eta", "eps"):
            self.next()
            self.expect("[")
            obj = self.signed_object()
            self.expect("]")
            return Unit(obj) if word == "eta" else Counit(obj)
        if word in RESERVED_NAMES:
            raise self.fail(f"unexpected keyword {word!r}")
        if not self.sig.has_morphism(word):
            raise self.fail(f"unknown morphism {word!r}")
        self.next()
        return Var(word)

    def bracket_sort(self) -> Sort:
        self.expect("[")
        s = self.sort(stop={"]"})
        self.expect("]")
        return s

    def signed_object(self) -> SignedObject:
        tok = self.expect("name")
        if not self.sig.has_object(tok.text):
            raise _error(f"unknown object {tok.text!r}", self.src, tok.pos)
        starred = False
        if self.peek().kind == "*":
            self.next()
            starred = True
        return SignedObject(self.sig.object(tok.text), starred)

    def sort(self, stop: set[str]) -> Sort:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "I":
            self.next()
            return Sort.unit()
        factors = [self.signed_object()]
        while self.peek().kind == "name" and self.peek().text == "x":
            self.next()
            factors.append(self.signed_object())
        if self.peek().kind not in stop:
            raise self.fail(f"unexpected {self.peek().text!r} in sort")
        return Sort(tuple(factors))


def parse_term(src: str, sig: Signature) -> Term:
    """Parse a term; names are resolved against ``sig`` while parsing."""
    return _Parser(src, sig).parse()


def _split_use(text: str) -> tuple[str | None, str]:
    """The path of a term file's ``use PATH`` line, its first code line,
    and the file with that line blanked, so positions stay file positions."""
    lines = text.splitlines(keepends=True)
    for i, raw in enumerate(lines):
        code = raw.split("#", 1)[0].strip()
        if code:
            if not code.startswith("use "):
                break
            lines[i] = raw[len(raw.splitlines()[0]):]  # keep the line break
            return code[4:].strip(), "".join(lines)
    return None, text


def use_path(text: str) -> str | None:
    """The path of a term file's ``use PATH`` line: its first code line."""
    return _split_use(text)[0]


def parse_term_file(text: str, sig: Signature | None = None,
                    load_signature=None) -> tuple[Term, Signature]:
    """Parse a term file: optional ``use PATH`` line, then one term.

    The term may span several lines and carry ``#`` comments; error
    positions are lines and columns of the file.  When ``sig`` is given
    it wins over any ``use`` line; otherwise the ``use`` path is
    resolved through the ``load_signature`` callback.
    """
    path, body = _split_use(text)
    if sig is None:
        if path is None:
            raise ParseError("no signature: term file has no 'use' line")
        if load_signature is None:
            raise ParseError(f"cannot resolve 'use {path}' without a loader")
        sig = load_signature(path)
    return parse_term(body, sig), sig
