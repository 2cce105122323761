"""Terms over a signature: syntax, parsing, printing, type checking.

Terms are built from morphism variables with sequential composition
``;``, tensor ``x``, identities, symmetries, trace, dagger, and (in
compact closed signatures) the unit ``eta`` and counit ``eps`` of
duals.  ``;`` reads left to right: ``f ; g`` applies ``f`` first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

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


# -- type checking -----------------------------------------------------

def type_check(t: Term, sig: Signature) -> tuple[Sort, Sort]:
    """Return ``(dom, cod)`` of ``t`` or raise :class:`TypeCheckError`."""
    if isinstance(t, Var):
        if not sig.has_morphism(t.var_name):
            raise TypeCheckError(f"unknown morphism {t.var_name!r}")
        f = sig.morphism(t.var_name)
        return f.dom, f.cod
    if isinstance(t, Id):
        return t.sort, t.sort
    if isinstance(t, Compose):
        dom1, cod1 = type_check(t.first, sig)
        dom2, cod2 = type_check(t.then, sig)
        if cod1 != dom2:
            raise TypeCheckError(
                f"sort mismatch in composition: {cod1} composed into {dom2}"
            )
        return dom1, cod2
    if isinstance(t, Tensor):
        dom1, cod1 = type_check(t.left, sig)
        dom2, cod2 = type_check(t.right, sig)
        return dom1.tensor(dom2), cod1.tensor(cod2)
    if isinstance(t, Symmetry):
        return t.left.tensor(t.right), t.right.tensor(t.left)
    if isinstance(t, Trace):
        dom, cod = type_check(t.body, sig)
        k = len(t.over)
        if k and (len(dom) < k or dom.factors[-k:] != t.over.factors):
            raise TypeCheckError(
                f"trace over {t.over}: domain {dom} does not end with it"
            )
        if k and (len(cod) < k or cod.factors[-k:] != t.over.factors):
            raise TypeCheckError(
                f"trace over {t.over}: codomain {cod} does not end with it"
            )
        return Sort(dom.factors[: len(dom) - k]), Sort(cod.factors[: len(cod) - k])
    if isinstance(t, Dagger):
        dom, cod = type_check(t.body, sig)
        return cod, dom
    if isinstance(t, Unit):
        if sig.kind == TRACED_MONOIDAL:
            raise TypeCheckError("eta is not available in a traced monoidal signature")
        return Sort.unit(), Sort((t.obj.star(), t.obj))
    if isinstance(t, Counit):
        if sig.kind == TRACED_MONOIDAL:
            raise TypeCheckError("eps is not available in a traced monoidal signature")
        return Sort((t.obj, t.obj.star())), Sort.unit()
    raise TypeError(f"not a term: {t!r}")


def close_term(t: Term, sig: Signature,
               prefix: str = "close") -> tuple[Term, Signature]:
    """Wrap ``t : X -> Y`` into a closed term ``in ; t ; out : I -> I``.

    ``in : I -> X`` and ``out : Y -> I`` are fresh morphism variables
    added to the returned signature.  Closed terms are returned as is.
    """
    dom, cod = type_check(t, sig)
    if dom.is_unit and cod.is_unit:
        return t, sig
    name_in, name_out = _fresh_pair(sig, prefix)
    out_sig = sig
    closed = t
    if not dom.is_unit:
        out_sig = declare_morphism(out_sig, name_in, Sort.unit(), dom)
        closed = Compose(Var(name_in), closed)
    if not cod.is_unit:
        out_sig = declare_morphism(out_sig, name_out, cod, Sort.unit())
        closed = Compose(closed, Var(name_out))
    return closed, out_sig


def close_pair(t1: Term, t2: Term, sig: Signature,
               prefix: str = "close") -> tuple[Term, Term, Signature]:
    """Close two terms of the same type with one shared pair of variables.

    Sharing matters: the closures must use equal labels on both sides,
    otherwise the closed terms could never be equal.
    """
    dom1, cod1 = type_check(t1, sig)
    dom2, cod2 = type_check(t2, sig)
    if (dom1, cod1) != (dom2, cod2):
        raise TypeCheckError(
            f"cannot compare {dom1} -> {cod1} with {dom2} -> {cod2}"
        )
    if dom1.is_unit and cod1.is_unit:
        return t1, t2, sig
    name_in, name_out = _fresh_pair(sig, prefix)
    out_sig = sig
    if not dom1.is_unit:
        out_sig = declare_morphism(out_sig, name_in, Sort.unit(), dom1)
        t1, t2 = Compose(Var(name_in), t1), Compose(Var(name_in), t2)
    if not cod1.is_unit:
        out_sig = declare_morphism(out_sig, name_out, cod1, Sort.unit())
        t1, t2 = Compose(t1, Var(name_out)), Compose(t2, Var(name_out))
    return t1, t2, out_sig


def _fresh_pair(sig: Signature, prefix: str) -> tuple[str, str]:
    k = 0
    while True:
        suffix = str(k) if k else ""
        name_in = f"{prefix}_in{suffix}"
        name_out = f"{prefix}_out{suffix}"
        if not (sig.has_morphism(name_in) or sig.has_morphism(name_out)
                or sig.has_object(name_in) or sig.has_object(name_out)):
            return name_in, name_out
        k += 1


# -- printing ----------------------------------------------------------

_COMPOSE, _TENSOR, _ATOM = 1, 2, 3


def _level(t: Term) -> int:
    if isinstance(t, Compose):
        return _COMPOSE
    if isinstance(t, Tensor):
        return _TENSOR
    return _ATOM


def term_to_text(t: Term) -> str:
    """Print ``t``; ``parse_term`` reads the result back verbatim."""
    return _render(t, 0)


def _render(t: Term, context: int) -> str:
    level = _level(t)
    if isinstance(t, Var):
        body = t.var_name
    elif isinstance(t, Id):
        body = f"id[{t.sort}]"
    elif isinstance(t, Compose):
        body = f"{_render(t.first, _COMPOSE)} ; {_render(t.then, _COMPOSE + 1)}"
    elif isinstance(t, Tensor):
        body = f"{_render(t.left, _TENSOR)} x {_render(t.right, _TENSOR + 1)}"
    elif isinstance(t, Symmetry):
        body = f"sym[{t.left},{t.right}]"
    elif isinstance(t, Trace):
        body = f"tr[{t.over}]({_render(t.body, 0)})"
    elif isinstance(t, Dagger):
        body = f"dagger({_render(t.body, 0)})"
    elif isinstance(t, Unit):
        body = f"eta[{t.obj}]"
    elif isinstance(t, Counit):
        body = f"eps[{t.obj}]"
    else:
        raise TypeError(f"not a term: {t!r}")
    return f"({body})" if level < context else body


# -- parsing -----------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*(?:†)?)"
    r"|(?P<punct>[;()\[\],*])"
)


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup or ""
        if kind == "name":
            tokens.append(_Token("name", text, line, col))
        elif kind == "punct":
            tokens.append(_Token(text, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence: ``;`` binds loosest, then ``x``; both associate to the
    left.  The keyword ``x`` doubles as the tensor operator.
    """

    def __init__(self, tokens: list[_Token], sig: Signature):
        self.tokens = tokens
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
            raise ParseError(f"expected {kind!r}, got {shown!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

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
            raise ParseError(f"unknown object {tok.text!r}", tok.line, tok.col)
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
    return _Parser(_tokenize(src), sig).parse()


def parse_term_file(text: str, sig: Signature | None = None,
                    load_signature=None) -> tuple[Term, Signature]:
    """Parse a term file: optional ``use PATH`` line, then one term.

    The term may span several lines; ``#`` comments are stripped.  When
    ``sig`` is given it wins over any ``use`` line; otherwise the
    ``use`` path is resolved through the ``load_signature`` callback.
    """
    use_path: str | None = None
    body_lines: list[str] = []
    for raw in text.splitlines():
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        if stripped.startswith("use ") and use_path is None and not body_lines:
            use_path = stripped[4:].strip()
            continue
        body_lines.append(code)
    if sig is None:
        if use_path is None:
            raise ParseError("no signature: term file has no 'use' line")
        if load_signature is None:
            raise ParseError(f"cannot resolve 'use {use_path}' without a loader")
        sig = load_signature(use_path)
    return parse_term("\n".join(body_lines), sig), sig
