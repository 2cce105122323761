"""Random generators and independent oracles used by the tests.

The isomorphism oracle here deliberately shares no code with the
library's search: it tries every box permutation and checks the
definition directly.  ``code_classes_all_roots`` is the canonical-code
scan without orbit pruning, which walks every candidate root.
``type_check_recursive`` and ``term_to_text_recursive`` are the term
walks written by plain recursion, the oracles for the library's single
explicit-stack walk.  ``parse_term_recursive`` is the recursive-descent
parser over a token list, the oracle for the library's one-pass
tokenizer and explicit-stack parser.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from typing import NamedTuple

from daggereq import (
    Diagram,
    ParseError,
    TypeCheckError,
    MorphismVar,
    ObjectVar,
    Signature,
    Sort,
    SignedObject,
    declare_morphism,
)
from daggereq import terms as tm
from daggereq.signature import RESERVED_NAMES, TRACED_MONOIDAL
from daggereq.diagram import _walk


def brute_force_isos(n: Diagram, m: Diagram) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All isomorphisms n -> m as (box_map, wire_map) pairs, by brute force."""
    if n.trivial_cycles != m.trivial_cycles:
        return []
    if n.n_boxes != m.n_boxes or n.n_wires != m.n_wires:
        return []
    found = []
    for perm in itertools.permutations(range(m.n_boxes)):
        if any(n.box_labels[b] != m.box_labels[perm[b]] for b in range(n.n_boxes)):
            continue
        wire_map: dict[int, int] = {}
        ok = True
        for b in range(n.n_boxes):
            pairs = list(zip(n.box_inputs[b], m.box_inputs[perm[b]]))
            pairs += list(zip(n.box_outputs[b], m.box_outputs[perm[b]]))
            for w, w2 in pairs:
                if wire_map.setdefault(w, w2) != w2:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if len(wire_map) != n.n_wires:
            continue
        if sorted(wire_map.values()) != list(range(m.n_wires)):
            continue
        if any(n.wire_labels[w] != m.wire_labels[w2] for w, w2 in wire_map.items()):
            continue
        found.append((tuple(perm), tuple(wire_map[w] for w in range(n.n_wires))))
    return found


def code_classes_all_roots(d: Diagram) -> dict[tuple, list[tuple[tuple[int, ...], ...]]]:
    """The components of ``d`` grouped by canonical code, each given by
    its walks from all of its canonical roots, in root order.

    Walks every root with the component's rarest label to the end (or
    until its code exceeds the least so far), one walk per candidate.
    """
    keys = [str(f) for f in d.box_labels]
    classes: dict[tuple, list[tuple[tuple[int, ...], ...]]] = {}
    seen: set[int] = set()
    for b in range(d.n_boxes):
        if b in seen:
            continue
        _, boxes = _walk(d, keys, b)
        seen.update(boxes)
        counts = Counter(keys[c] for c in boxes)
        rarest = min(counts, key=lambda key: (counts[key], key))
        best, walks = None, []
        for root in [c for c in boxes if keys[c] == rarest]:
            found = _walk(d, keys, root, best)
            if found is None:
                continue
            code, walk = found
            if code != best:
                best, walks = code, []
            walks.append(walk)
        classes.setdefault(best, []).append(tuple(walks))
    return classes


def gen_signature() -> Signature:
    """Star-free signature with assorted arities for random diagrams."""
    A, B = ObjectVar("A"), ObjectVar("B")
    sig = Signature("traced-monoidal", (A, B))
    sig = declare_morphism(sig, "f", Sort.of(B), Sort.of(A, A))
    sig = declare_morphism(sig, "g", Sort.of(A, B), Sort.of(B, A))
    sig = declare_morphism(sig, "h", Sort.of(A), Sort.of(A))
    sig = declare_morphism(sig, "e", Sort.unit(), Sort.of(B))
    sig = declare_morphism(sig, "s", Sort.unit(), Sort.unit())
    return sig


def starred_signature() -> Signature:
    """Compact closed signature with duals in several positions."""
    objs = tuple(ObjectVar(x) for x in "ABCDE")
    A, B, C, D, E = objs
    sig = Signature("compact-closed", objs)
    sig = declare_morphism(
        sig, "f",
        Sort((SignedObject(A, True), SignedObject(B), SignedObject(C, True))),
        Sort((SignedObject(D, True), SignedObject(E))))
    sig = declare_morphism(sig, "k", Sort.of(D), Sort.of(E))
    sig = declare_morphism(
        sig, "u", Sort.unit(), Sort((SignedObject(A), SignedObject(B, True))))
    return sig


def necklace_signature() -> Signature:
    """Endomorphisms ``a``, ``b``, ``c`` of ``X`` for cycles, and
    ``t : X x X -> X x X`` for tori."""
    X = ObjectVar("X")
    sig = Signature("traced-monoidal", (X,))
    for name in "abc":
        sig = declare_morphism(sig, name, Sort.of(X), Sort.of(X))
    return declare_morphism(sig, "t", Sort.of(X, X), Sort.of(X, X))


def word_cycle(labels: list[MorphismVar]) -> Diagram:
    """One cycle of endomorphism boxes: box ``i`` feeds box ``i + 1``."""
    n = len(labels)
    return Diagram(tuple(f.cod.factors[0].base for f in labels), tuple(labels),
                   tuple((i,) for i in range(n)),
                   tuple(((i + 1) % n,) for i in range(n)))


def torus(t: MorphismVar, rows: int, cols: int) -> Diagram:
    """A rows x cols grid of ``t`` boxes wrapped around both ways.

    Output 0 of each box feeds input 0 of its right neighbour and
    output 1 input 1 of the one below, so the translations are all its
    automorphisms: rows * cols of them, from two generators.
    """
    n = rows * cols
    obj = t.cod.factors[0].base
    return Diagram(
        (obj,) * 2 * n, (t,) * n,
        tuple((2 * (r * cols + (c - 1) % cols),
               2 * (((r - 1) % rows) * cols + c) + 1)
              for r in range(rows) for c in range(cols)),
        tuple((2 * b, 2 * b + 1) for b in range(n)),
    )


def random_simple_diagram(rng: random.Random, sig: Signature,
                          max_boxes: int = 4, max_wires: int = 8) -> Diagram:
    """A random closed diagram over the morphisms of a star-free signature.

    Rejection-samples a port-balanced multiset of box labels, then
    matches outputs to inputs uniformly per object label.
    """
    pool = list(sig.morphisms)
    while True:
        k = rng.randint(1, max_boxes)
        chosen = [rng.choice(pool) for _ in range(k)]
        outs: dict[ObjectVar, list[tuple[int, int]]] = {}
        ins: dict[ObjectVar, list[tuple[int, int]]] = {}
        for b, f in enumerate(chosen):
            for j, sf in enumerate(f.cod):
                outs.setdefault(sf.base, []).append((b, j))
            for j, sf in enumerate(f.dom):
                ins.setdefault(sf.base, []).append((b, j))
        if {a: len(v) for a, v in outs.items()} != {a: len(v) for a, v in ins.items()}:
            continue
        if sum(len(v) for v in outs.values()) > max_wires:
            continue
        wires: list[tuple[ObjectVar, tuple[int, int], tuple[int, int]]] = []
        for a in sorted(outs, key=lambda a: a.name):
            targets = ins[a][:]
            rng.shuffle(targets)
            wires.extend((a, src, dst) for src, dst in zip(outs[a], targets))
        wires.sort(key=lambda wire: wire[1])
        box_inputs = [[-1] * len(f.dom) for f in chosen]
        box_outputs = [[-1] * len(f.cod) for f in chosen]
        for w, (_, (b, j), (c, i)) in enumerate(wires):
            box_outputs[b][j] = w
            box_inputs[c][i] = w
        d = Diagram(
            tuple(a for a, _, _ in wires),
            tuple(chosen),
            tuple(tuple(ws) for ws in box_inputs),
            tuple(tuple(ws) for ws in box_outputs),
        )
        d.validate()
        return d


def permuted_copy(d: Diagram, rng: random.Random) -> Diagram:
    wire_perm = list(range(d.n_wires))
    box_perm = list(range(d.n_boxes))
    rng.shuffle(wire_perm)
    rng.shuffle(box_perm)
    return d.relabel(tuple(wire_perm), tuple(box_perm))


def disjoint_union(*ds: Diagram) -> Diagram:
    """Side-by-side union of simple diagrams; wires and boxes keep their order."""
    wire_labels, box_labels, box_inputs, box_outputs = [], [], [], []
    for d in ds:
        shift = len(wire_labels)
        wire_labels += d.wire_labels
        box_labels += d.box_labels
        box_inputs += [tuple(w + shift for w in ws) for ws in d.box_inputs]
        box_outputs += [tuple(w + shift for w in ws) for ws in d.box_outputs]
    return Diagram(tuple(wire_labels), tuple(box_labels),
                   tuple(box_inputs), tuple(box_outputs))


def random_term(rng: random.Random, sig: Signature, steps: int = 8) -> tm.Term:
    """A random well-typed term, possibly open, over ``sig``."""
    compact = sig.kind == "compact-closed"

    def random_signed(a: ObjectVar) -> SignedObject:
        return SignedObject(a, compact and rng.random() < 0.4)

    def random_sort(max_len: int = 2) -> Sort:
        k = rng.randint(1, max_len)
        return Sort(tuple(random_signed(rng.choice(sig.objects)) for _ in range(k)))

    pool: list[tuple[tm.Term, Sort, Sort]] = []

    def push(t: tm.Term) -> None:
        dom, cod = tm.type_check(t, sig)
        pool.append((t, dom, cod))

    for f in sig.morphisms:
        push(tm.Var(f.display_name))
    push(tm.Id(random_sort()))
    push(tm.Symmetry(random_sort(1), random_sort(1)))
    if compact:
        obj = random_signed(rng.choice(sig.objects))
        push(tm.Unit(obj))
        push(tm.Counit(obj))

    for _ in range(steps):
        op = rng.choice(["compose", "compose", "tensor", "dagger", "trace", "glue"])
        t, dom, cod = rng.choice(pool)
        if op == "compose":
            partners = [(t2, c2) for t2, d2, c2 in pool if d2 == cod]
            if partners:
                t2, c2 = rng.choice(partners)
                push(tm.Compose(t, t2))
                continue
            op = "tensor"
        if op == "tensor":
            t2, _, _ = rng.choice(pool)
            push(tm.Tensor(t, t2))
        elif op == "dagger":
            push(tm.Dagger(t))
        elif op == "glue":
            push(tm.Compose(t, tm.Id(cod)) if rng.random() < 0.5
                 else tm.Compose(tm.Id(dom), t))
        elif op == "trace":
            common = 0
            while (common < min(len(dom), len(cod))
                   and dom.factors[len(dom) - 1 - common]
                   == cod.factors[len(cod) - 1 - common]):
                common += 1
            if common:
                k = rng.randint(1, common)
                push(tm.Trace(Sort(dom.factors[len(dom) - k:]), t))
    return pool[-1][0]


def rebracket(t: tm.Term, rng: random.Random, sig: Signature) -> tm.Term:
    """A syntactically different term that compiles to the same diagram.

    Rotates associativity of composition and tensor, inserts
    identities and cancelling symmetry pairs, and doubles daggers.
    Leaf order is preserved, so even box numbering survives.
    """

    def go(t: tm.Term) -> tm.Term:
        if isinstance(t, tm.Compose):
            t = tm.Compose(go(t.first), go(t.then))
            if isinstance(t.first, tm.Compose) and rng.random() < 0.5:
                a, b, c = t.first.first, t.first.then, t.then
                t = tm.Compose(a, tm.Compose(b, c))
        elif isinstance(t, tm.Tensor):
            t = tm.Tensor(go(t.left), go(t.right))
            if isinstance(t.left, tm.Tensor) and rng.random() < 0.5:
                a, b, c = t.left.left, t.left.right, t.right
                t = tm.Tensor(a, tm.Tensor(b, c))
        elif isinstance(t, tm.Trace):
            t = tm.Trace(t.over, go(t.body))
        elif isinstance(t, tm.Dagger):
            t = tm.Dagger(go(t.body))
        roll = rng.random()
        dom, cod = tm.type_check(t, sig)
        if roll < 0.15:
            t = tm.Compose(t, tm.Id(cod))
        elif roll < 0.3:
            t = tm.Compose(tm.Id(dom), t)
        elif roll < 0.4:
            t = tm.Dagger(tm.Dagger(t))
        elif roll < 0.5 and len(cod) >= 2:
            cut = rng.randint(1, len(cod) - 1)
            left, right = Sort(cod.factors[:cut]), Sort(cod.factors[cut:])
            t = tm.Compose(t, tm.Compose(tm.Symmetry(left, right),
                                         tm.Symmetry(right, left)))
        return t

    return go(t)


def type_check_recursive(t: tm.Term, sig: Signature) -> tuple[Sort, Sort]:
    """``(dom, cod)`` of ``t`` or :class:`TypeCheckError`, by recursion."""
    if isinstance(t, tm.Var):
        if not sig.has_morphism(t.var_name):
            raise TypeCheckError(f"unknown morphism {t.var_name!r}")
        f = sig.morphism(t.var_name)
        return f.dom, f.cod
    if isinstance(t, tm.Id):
        return t.sort, t.sort
    if isinstance(t, tm.Compose):
        dom1, cod1 = type_check_recursive(t.first, sig)
        dom2, cod2 = type_check_recursive(t.then, sig)
        if cod1 != dom2:
            raise TypeCheckError(
                f"sort mismatch in composition: {cod1} composed into {dom2}"
            )
        return dom1, cod2
    if isinstance(t, tm.Tensor):
        dom1, cod1 = type_check_recursive(t.left, sig)
        dom2, cod2 = type_check_recursive(t.right, sig)
        return dom1.tensor(dom2), cod1.tensor(cod2)
    if isinstance(t, tm.Symmetry):
        return t.left.tensor(t.right), t.right.tensor(t.left)
    if isinstance(t, tm.Trace):
        dom, cod = type_check_recursive(t.body, sig)
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
    if isinstance(t, tm.Dagger):
        dom, cod = type_check_recursive(t.body, sig)
        return cod, dom
    if isinstance(t, tm.Unit):
        if sig.kind == TRACED_MONOIDAL:
            raise TypeCheckError("eta is not available in a traced monoidal signature")
        return Sort.unit(), Sort((t.obj.star(), t.obj))
    if isinstance(t, tm.Counit):
        if sig.kind == TRACED_MONOIDAL:
            raise TypeCheckError("eps is not available in a traced monoidal signature")
        return Sort((t.obj, t.obj.star())), Sort.unit()
    raise TypeError(f"not a term: {t!r}")


_COMPOSE, _TENSOR, _ATOM = 1, 2, 3


def _level(t: tm.Term) -> int:
    if isinstance(t, tm.Compose):
        return _COMPOSE
    if isinstance(t, tm.Tensor):
        return _TENSOR
    return _ATOM


def term_to_text_recursive(t: tm.Term, context: int = 0) -> str:
    """Print ``t`` by recursion, in parentheses when its level is below
    ``context``."""
    level = _level(t)
    if isinstance(t, tm.Var):
        body = t.var_name
    elif isinstance(t, tm.Id):
        body = f"id[{t.sort}]"
    elif isinstance(t, tm.Compose):
        body = (f"{term_to_text_recursive(t.first, _COMPOSE)} ; "
                f"{term_to_text_recursive(t.then, _COMPOSE + 1)}")
    elif isinstance(t, tm.Tensor):
        body = (f"{term_to_text_recursive(t.left, _TENSOR)} x "
                f"{term_to_text_recursive(t.right, _TENSOR + 1)}")
    elif isinstance(t, tm.Symmetry):
        body = f"sym[{t.left},{t.right}]"
    elif isinstance(t, tm.Trace):
        body = f"tr[{t.over}]({term_to_text_recursive(t.body, 0)})"
    elif isinstance(t, tm.Dagger):
        body = f"dagger({term_to_text_recursive(t.body, 0)})"
    elif isinstance(t, tm.Unit):
        body = f"eta[{t.obj}]"
    elif isinstance(t, tm.Counit):
        body = f"eps[{t.obj}]"
    else:
        raise TypeError(f"not a term: {t!r}")
    return f"({body})" if level < context else body


def random_untyped_term(rng: random.Random, sig: Signature, steps: int = 8) -> tm.Term:
    """A random term over ``sig`` that is often ill-typed.

    Composites pick their parts with no regard for sorts, traces run
    over a random sort, and the leaves include an undeclared variable
    and, in a traced signature, units and counits it does not allow.
    """

    def random_sort(max_len: int = 2) -> Sort:
        return Sort(tuple(SignedObject(rng.choice(sig.objects), rng.random() < 0.3)
                          for _ in range(rng.randint(0, max_len))))

    obj = SignedObject(rng.choice(sig.objects), rng.random() < 0.5)
    pool: list[tm.Term] = [tm.Var(f.display_name) for f in sig.morphisms]
    pool += [tm.Var("undeclared"), tm.Id(random_sort()), tm.Unit(obj), tm.Counit(obj),
             tm.Symmetry(random_sort(1), random_sort(1))]
    for _ in range(steps):
        op = rng.choice(["compose", "compose", "tensor", "dagger", "trace"])
        t, u = rng.choice(pool), rng.choice(pool)
        if op == "compose":
            pool.append(tm.Compose(t, u))
        elif op == "tensor":
            pool.append(tm.Tensor(t, u))
        elif op == "dagger":
            pool.append(tm.Dagger(t))
        else:
            pool.append(tm.Trace(random_sort(), t))
    return pool[-1]


# -- the recursive parser ------------------------------------------------

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

    def parse(self) -> tm.Term:
        t = self.composition()
        if self.peek().kind != "eof":
            raise self.fail(f"trailing input {self.peek().text!r}")
        return t

    def composition(self) -> tm.Term:
        t = self.tensor()
        while self.peek().kind == ";":
            self.next()
            t = tm.Compose(t, self.tensor())
        return t

    def tensor(self) -> tm.Term:
        t = self.atom()
        while self.peek().kind == "name" and self.peek().text == "x":
            self.next()
            t = tm.Tensor(t, self.atom())
        return t

    def atom(self) -> tm.Term:
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
            return tm.Id(self.bracket_sort())
        if word == "sym":
            self.next()
            self.expect("[")
            left = self.sort(stop={",", "]"})
            self.expect(",")
            right = self.sort(stop={"]"})
            self.expect("]")
            return tm.Symmetry(left, right)
        if word == "tr":
            self.next()
            over = self.bracket_sort()
            self.expect("(")
            body = self.composition()
            self.expect(")")
            return tm.Trace(over, body)
        if word == "dagger":
            self.next()
            self.expect("(")
            body = self.composition()
            self.expect(")")
            return tm.Dagger(body)
        if word in ("eta", "eps"):
            self.next()
            self.expect("[")
            obj = self.signed_object()
            self.expect("]")
            return tm.Unit(obj) if word == "eta" else tm.Counit(obj)
        if word in RESERVED_NAMES:
            raise self.fail(f"unexpected keyword {word!r}")
        if not self.sig.has_morphism(word):
            raise self.fail(f"unknown morphism {word!r}")
        self.next()
        return tm.Var(word)

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


def parse_term_recursive(src: str, sig: Signature) -> tm.Term:
    """A term read by recursive descent over a list of tokens, or
    :class:`ParseError`.  Brackets nest as deep as the stack allows."""
    return _Parser(src, sig).parse()

