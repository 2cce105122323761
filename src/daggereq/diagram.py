"""Closed string diagrams and their isomorphisms.

A closed diagram is a finite set of labeled wires and labeled boxes.
Every wire has exactly one producer (a box output port) and exactly one
consumer (a box input port).  Closed loops that touch no box cannot be
seen by ports at all, so they are carried separately as a multiset of
object labels (``trivial_cycles``).

Terms compile to diagrams by union-find over wire ends: identities,
symmetries, duality units and counits contribute no boxes, only
wiring.  Compact closed structure is removed box by box: every
morphism variable is replaced by its star-free translation, computed
the first time the variable is used, and the original port positions
are routed through its port table.  Open terms are compiled with their
boundary wire ends kept, then closed by joining those ends to a pair
of fresh boxes.

Isomorphism is decided by canonical codes of connected components.
Ports are ordered, so fixing the image of one box fixes the image of
every box in its component; no search is needed.  For the same reason
automorphisms act freely on boxes: two walks with equal codes give an
automorphism, roots in the orbit of a walked root are not walked again,
and a component's automorphism count is the size of one orbit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DiagramError, ParseError, TypeCheckError
from . import terms as tm
from .signature import (
    MorphismVar,
    ObjectVar,
    Signature,
    Sort,
    code_lines,
    fresh_morphism,
    int_translate,  # unused here; perfbench's tracer wraps it by this name
)


@dataclass(frozen=True)
class Diagram:
    """Immutable closed diagram.

    ``box_inputs[b]`` lists the wire consumed at each input port of box
    ``b`` in port order, ``box_outputs[b]`` the wire produced at each
    output port.  ``trivial_cycles`` maps each looped object label to a
    positive count, sorted by name.
    """

    wire_labels: tuple[ObjectVar, ...]
    box_labels: tuple[MorphismVar, ...]
    box_inputs: tuple[tuple[int, ...], ...]
    box_outputs: tuple[tuple[int, ...], ...]
    trivial_cycles: tuple[tuple[ObjectVar, int], ...] = ()

    @property
    def n_wires(self) -> int:
        return len(self.wire_labels)

    @property
    def n_boxes(self) -> int:
        return len(self.box_labels)

    @property
    def is_simple(self) -> bool:
        return not self.trivial_cycles

    @cached_property
    def producer(self) -> tuple[tuple[int, int], ...]:
        """For each wire, the ``(box, output port)`` that produces it."""
        return _port_table(self.n_wires, self.box_outputs)

    @cached_property
    def consumer(self) -> tuple[tuple[int, int], ...]:
        """For each wire, the ``(box, input port)`` that consumes it."""
        return _port_table(self.n_wires, self.box_inputs)

    def validate(self) -> None:
        """Check all structural invariants, raising :class:`DiagramError`."""
        if len(self.box_inputs) != self.n_boxes or len(self.box_outputs) != self.n_boxes:
            raise DiagramError("box port tables do not match box count")
        produced = Counter(w for ws in self.box_outputs for w in ws)
        consumed = Counter(w for ws in self.box_inputs for w in ws)
        for w in range(self.n_wires):
            if produced[w] != 1:
                raise DiagramError(f"wire w{w} has {produced[w]} producers")
            if consumed[w] != 1:
                raise DiagramError(f"wire w{w} has {consumed[w]} consumers")
        if set(produced) - set(range(self.n_wires)) or set(consumed) - set(range(self.n_wires)):
            raise DiagramError("port tables mention unknown wires")
        for b, f in enumerate(self.box_labels):
            if f.dom.has_stars or f.cod.has_stars:
                raise DiagramError(f"box b{b} label {f.display_name!r} has starred sorts")
            sides = (("input", self.box_inputs[b], f.dom),
                     ("output", self.box_outputs[b], f.cod))
            for side, ws, sort in sides:
                if len(ws) != len(sort):
                    raise DiagramError(f"box b{b} {side} arity does not match {sort}")
            for side, ws, sort in sides:
                for j, w in enumerate(ws):
                    if self.wire_labels[w] != sort.factors[j].base:
                        raise DiagramError(
                            f"wire w{w} label {self.wire_labels[w]} does not match "
                            f"{side} port {j + 1} of b{b} : {f.display_name}"
                        )
        labels = [a for a, _ in self.trivial_cycles]
        if labels != sorted(set(labels), key=lambda a: a.name):
            raise DiagramError("trivial cycle labels must be sorted and unique")
        if any(k < 1 for _, k in self.trivial_cycles):
            raise DiagramError("trivial cycle counts must be positive")

    def relabel(self, wire_perm: tuple[int, ...], box_perm: tuple[int, ...]) -> Diagram:
        """Rename wires and boxes; ``wire_perm[old] = new``."""
        if sorted(wire_perm) != list(range(self.n_wires)):
            raise DiagramError("wire_perm is not a permutation")
        if sorted(box_perm) != list(range(self.n_boxes)):
            raise DiagramError("box_perm is not a permutation")
        wire_labels: list[ObjectVar | None] = [None] * self.n_wires
        for w, label in enumerate(self.wire_labels):
            wire_labels[wire_perm[w]] = label
        box_labels: list[MorphismVar | None] = [None] * self.n_boxes
        box_inputs: list[tuple[int, ...]] = [()] * self.n_boxes
        box_outputs: list[tuple[int, ...]] = [()] * self.n_boxes
        for b in range(self.n_boxes):
            box_labels[box_perm[b]] = self.box_labels[b]
            box_inputs[box_perm[b]] = tuple(wire_perm[w] for w in self.box_inputs[b])
            box_outputs[box_perm[b]] = tuple(wire_perm[w] for w in self.box_outputs[b])
        return Diagram(
            tuple(wire_labels),  # type: ignore[arg-type]
            tuple(box_labels),  # type: ignore[arg-type]
            tuple(box_inputs),
            tuple(box_outputs),
            self.trivial_cycles,
        )

    def without_trivial_cycles(self) -> Diagram:
        return Diagram(self.wire_labels, self.box_labels,
                       self.box_inputs, self.box_outputs, ())


def _port_table(n_wires: int, box_ports: tuple) -> tuple[tuple[int, int], ...]:
    """For each wire, the ``(box, port)`` of ``box_ports`` it is attached to."""
    out: list[tuple[int, int] | None] = [None] * n_wires
    for b, ws in enumerate(box_ports):
        for j, w in enumerate(ws):
            out[w] = (b, j)
    return tuple(out)  # type: ignore[arg-type]


def mirror(d: Diagram) -> Diagram:
    """The dagger of a closed diagram: flip every box, reverse every wire."""
    return Diagram(
        d.wire_labels,
        tuple(f.dagger() for f in d.box_labels),
        d.box_outputs,
        d.box_inputs,
        d.trivial_cycles,
    )


# -- compiling terms ---------------------------------------------------

def _find(parent: list[int] | dict[int, int], n: int) -> int:
    """The root of ``n`` in the forest ``parent``; the path is compressed."""
    root = n
    while parent[root] != root:
        root = parent[root]
    while parent[n] != root:
        parent[n], n = root, parent[n]
    return root


class _Builder:
    def __init__(self, sig: Signature):
        self.sig = sig
        # Union-find over the wire ends made so far, and their labels.
        self.parent: list[int] = []
        self.end_labels: list[ObjectVar] = []
        self.box_labels: list[MorphismVar] = []
        self.box_dom_nodes: list[list[int]] = []
        self.box_cod_nodes: list[list[int]] = []

    def new(self, label: ObjectVar) -> int:
        self.parent.append(len(self.parent))
        self.end_labels.append(label)
        return len(self.parent) - 1

    def join(self, xs: list[int], ys: list[int]) -> None:
        """Join the ends ``xs`` to ``ys`` pairwise.  Terms are typed
        before their ends are joined, so joined ends carry one label."""
        for a, b in zip(xs, ys):
            self.parent[_find(self.parent, a)] = _find(self.parent, b)

    def build(self, t: tm.Term, args: list) -> tuple:
        """Type and compile the node ``t`` from its children's values,
        each ``((dom, cod), dom ends, cod ends, first box)``: the sorts by
        the typing rule, the boundary wire ends, and the index of the
        first box the subterm added."""
        sorts = tm._sorts(self.sig, t, [a[0] for a in args])
        first_box = args[0][3] if args else len(self.box_labels)
        if isinstance(t, tm.Compose):
            (_, dom, cod1, _), (_, dom2, cod, _) = args
            self.join(cod1, dom2)
        elif isinstance(t, tm.Id):
            dom = [self.new(sf.base) for sf in t.sort]
            cod = list(dom)
        elif isinstance(t, tm.Symmetry):
            left = [self.new(sf.base) for sf in t.left]
            right = [self.new(sf.base) for sf in t.right]
            dom, cod = left + right, right + left
        elif isinstance(t, tm.Var):
            dom, cod = self.box(self.sig.morphism(t.var_name))
        elif isinstance(t, tm.Tensor):
            (_, dom1, cod1, _), (_, dom2, cod2, _) = args
            dom, cod = dom1 + dom2, cod1 + cod2
        elif isinstance(t, tm.Trace):
            (_, dom, cod, _), = args
            k = len(t.over)
            self.join(cod[len(cod) - k:], dom[len(dom) - k:])
            dom, cod = dom[: len(dom) - k], cod[: len(cod) - k]
        elif isinstance(t, tm.Dagger):
            (_, cod, dom, _), = args
            for b in range(first_box, len(self.box_labels)):
                self.box_labels[b] = self.box_labels[b].dagger()
                self.box_dom_nodes[b], self.box_cod_nodes[b] = (
                    self.box_cod_nodes[b], self.box_dom_nodes[b])
        else:  # a unit or counit: one wire, bent
            n = self.new(t.obj.base)
            dom, cod = ([], [n, n]) if isinstance(t, tm.Unit) else ([n, n], [])
        return sorts, dom, cod, first_box

    def box(self, f: MorphismVar) -> tuple[list[int], list[int]]:
        g, table = f.translation
        dom_nodes = [self.new(sf.base) for sf in g.dom]
        cod_nodes = [self.new(sf.base) for sf in g.cod]
        self.box_labels.append(g)
        self.box_dom_nodes.append(dom_nodes)
        self.box_cod_nodes.append(cod_nodes)

        def end(side: str, i: int) -> int:
            new_side, k = table[side, i]
            return dom_nodes[k] if new_side == "dom" else cod_nodes[k]

        return ([end("dom", i) for i in range(len(f.dom))],
                [end("cod", j) for j in range(len(f.cod))])

    def close(self, f_in: MorphismVar | None, f_out: MorphismVar | None,
              dom: list[int], cod: list[int]) -> Diagram:
        """The diagram of ``f_in ; t ; f_out`` for the term ``t`` built
        so far, with boundary ends ``dom`` and ``cod``; a missing box
        leaves its side as it is.  ``f_in`` becomes box 0, as it is the
        first box of the closed term."""
        if f_in is not None:
            _, ends = self.box(f_in)
            self.join(ends, dom)
            for boxes in (self.box_labels, self.box_dom_nodes, self.box_cod_nodes):
                boxes.insert(0, boxes.pop())
        if f_out is not None:
            ends, _ = self.box(f_out)
            self.join(cod, ends)
        return self.finalize()

    def finalize(self) -> Diagram:
        """Number the wires in the order of their producing output ports.

        In a closed typed term each class of ends has one producer and
        one consumer, or neither: a trivial cycle.
        """
        parent = self.parent
        root = [_find(parent, n) for n in range(len(parent))]
        wire_of: dict[int, int] = {}
        for nodes in self.box_cod_nodes:
            for n in nodes:
                wire_of[root[n]] = len(wire_of)
        trivial = Counter(self.end_labels[r] for r in set(root) if r not in wire_of)
        return Diagram(
            tuple(self.end_labels[r] for r in wire_of),
            tuple(self.box_labels),
            tuple(tuple(wire_of[root[n]] for n in nodes) for nodes in self.box_dom_nodes),
            tuple(tuple(wire_of[root[n]] for n in nodes) for nodes in self.box_cod_nodes),
            tuple(sorted(trivial.items(), key=lambda item: item[0].name)),
        )


def _open(t: tm.Term, sig: Signature) -> tuple:
    """Walk ``t`` once: its builder, its type and its boundary wire ends."""
    builder = _Builder(sig)
    sorts, dom, cod, _ = tm._fold(t, builder.build)
    return builder, sorts, dom, cod


def compile_term(t: tm.Term, sig: Signature) -> Diagram:
    """Compile a closed term to its diagram.

    The compact closed structure is eliminated on the fly, so box
    labels in the result are the star-free translations of the
    signature's morphism variables.  The result is valid by
    construction, so :meth:`Diagram.validate` is not run on it.
    """
    builder, (dom, cod), _, _ = _open(t, sig)
    if not (dom.is_unit and cod.is_unit):
        raise TypeCheckError(f"term is not closed: {dom} -> {cod}")
    return builder.finalize()


def compile_closed(ts: list[tm.Term],
                   sig: Signature) -> tuple[tuple[Sort, Sort], list[Diagram]]:
    """Compile terms of one type ``X -> Y``, each closed as ``in ; t ; out``
    with one shared pair of fresh variables ``in : I -> X`` and
    ``out : Y -> I``; return the type and the diagrams.

    Each term is walked once, against ``sig`` itself, and closed at the
    diagram level.  The diagrams are those :func:`compile_term` gives
    the terms :func:`terms.close_pair` closes, box for box and wire for
    wire, and so are the errors.  Closed terms get no closure.
    """
    opened = [_open(t, sig) for t in ts]
    dom_sort, cod_sort = tm.common_type([sorts for _, sorts, _, _ in opened])
    f_in = f_out = None
    if not (dom_sort.is_unit and cod_sort.is_unit):
        name_in, name_out = tm.closure_names(sig)
        if not dom_sort.is_unit:
            f_in = fresh_morphism(sig, name_in, Sort.unit(), dom_sort)
        if not cod_sort.is_unit:
            f_out = fresh_morphism(sig, name_out, cod_sort, Sort.unit())
    return (dom_sort, cod_sort), [builder.close(f_in, f_out, dom, cod)
                                  for builder, _, dom, cod in opened]


# -- isomorphisms ------------------------------------------------------

@dataclass(frozen=True)
class DiagramIso:
    """A pair of bijections witnessing isomorphism of two diagrams.

    ``wire_map[w]`` and ``box_map[b]`` give the image in the second
    diagram of wire ``w`` and box ``b`` of the first.
    """

    wire_map: tuple[int, ...]
    box_map: tuple[int, ...]

    def verify(self, n: Diagram, m: Diagram) -> bool:
        """Check every isomorphism condition from scratch."""
        if sorted(self.wire_map) != list(range(m.n_wires)):
            return False
        if sorted(self.box_map) != list(range(m.n_boxes)):
            return False
        if n.n_wires != m.n_wires or n.n_boxes != m.n_boxes:
            return False
        if n.trivial_cycles != m.trivial_cycles:
            return False
        for w in range(n.n_wires):
            if n.wire_labels[w] != m.wire_labels[self.wire_map[w]]:
                return False
        for b in range(n.n_boxes):
            c = self.box_map[b]
            if n.box_labels[b] != m.box_labels[c]:
                return False
            if tuple(self.wire_map[w] for w in n.box_inputs[b]) != m.box_inputs[c]:
                return False
            if tuple(self.wire_map[w] for w in n.box_outputs[b]) != m.box_outputs[c]:
                return False
        return True


# The boxes of one connected component in the order a walk visits them.
Walk = tuple[int, ...]
# A component: its walk from its first canonical root, and all its
# canonical roots, one per automorphism.
Component = tuple[Walk, tuple[int, ...]]
# Per code class shared by two diagrams, its components in each.
Matching = list[tuple[list[Component], list[Component]]]


def _walk(d: Diagram, keys: list[str], root: int,
          bound: tuple | None = None) -> tuple[tuple, Walk] | None:
    """The code of ``root``'s component, walked breadth-first from ``root``.

    Each box adds its label key and, for its output ports in order and
    then its input ports, the (visit position, port) at the other end
    of the wire.  Ports are ordered, so two walks give the same code
    exactly when an isomorphism maps the one onto the other position by
    position.  Returns None as soon as the code exceeds ``bound``.
    """
    consumer, producer = d.consumer, d.producer
    position = {root: 0}
    order = [root]
    code: list[tuple] = []
    for b in order:  # grows as the walk reaches new boxes
        ends = ([consumer[w] for w in d.box_outputs[b]]
                + [producer[w] for w in d.box_inputs[b]])
        ports: list[int] = []
        for c, k in ends:
            if c not in position:
                position[c] = len(order)
                order.append(c)
            ports += (position[c], k)
        token = (keys[b], tuple(ports))
        if bound is not None:
            if token > bound[len(code)]:
                return None
            if token < bound[len(code)]:
                bound = None
        code.append(token)
    return tuple(code), tuple(order)


def _code_classes(d: Diagram) -> dict[tuple, list[Component]]:
    """The connected components of ``d``, grouped by canonical code.

    A component's canonical code is its least code from a root with its
    rarest label (ties broken by name).  Two full walks with the same
    code map onto each other position by position, an automorphism of
    the component; these are kept as generators, and a root in the
    orbit of a root already walked has that root's code, so it is
    skipped.  Automorphisms act freely on the boxes, so the canonical
    roots are exactly the orbit of the first one, one per automorphism.
    """
    keys = [str(f) for f in d.box_labels]
    classes: dict[tuple, list[Component]] = {}
    seen: set[int] = set()
    for b in range(d.n_boxes):
        if b in seen:
            continue
        _, boxes = _walk(d, keys, b)
        seen.update(boxes)
        counts = Counter(keys[c] for c in boxes)
        rarest = min(counts, key=lambda key: (counts[key], key))
        roots = [c for c in boxes if keys[c] == rarest]
        # Union-find over the roots: the orbits under the generators.
        parent = {c: c for c in roots}
        walked: set[int] = set()  # representatives of walked orbits
        best, ref = None, ()
        for root in roots:
            rep = _find(parent, root)
            if rep in walked:
                continue
            walked.add(rep)
            found = _walk(d, keys, root, best)
            if found is None:
                continue
            code, walk = found
            if code != best:
                best, ref = code, walk
                continue
            for x, y in zip(ref, walk):
                if x in parent:
                    x, y = _find(parent, x), _find(parent, y)
                    if x != y:
                        parent[y] = x
                        if y in walked:
                            walked.add(x)
        first = _find(parent, ref[0])
        canonical = tuple(c for c in roots if _find(parent, c) == first)
        classes.setdefault(best, []).append((ref, canonical))
    return classes


def _match(n: Diagram, m: Diagram) -> Matching | None:
    """Pair the code classes of ``n`` and ``m``; None if not isomorphic."""
    if n.trivial_cycles != m.trivial_cycles:
        return None
    classes_n, classes_m = _code_classes(n), _code_classes(m)
    if ({code: len(comps) for code, comps in classes_n.items()}
            != {code: len(comps) for code, comps in classes_m.items()}):
        return None
    return [(comps, classes_m[code]) for code, comps in classes_n.items()]


def _count(matching: Matching) -> int:
    """k! * a**k over each class of k components with a automorphisms."""
    count = 1
    for _, comps in matching:
        for k, (_, roots) in enumerate(comps, start=1):
            count *= k * len(roots)
    return count


def _iso(n: Diagram, m: Diagram, pairs: Iterable[tuple[Walk, Walk]]) -> DiagramIso:
    """Map each walk in ``n`` onto its partner in ``m``, position by position."""
    box_map = [0] * n.n_boxes
    wire_map = [0] * n.n_wires
    for walk_n, walk_m in pairs:
        for b, c in zip(walk_n, walk_m):
            box_map[b] = c
            for w, v in zip(n.box_outputs[b], m.box_outputs[c]):
                wire_map[w] = v
    return DiagramIso(tuple(wire_map), tuple(box_map))


def find_isos(n: Diagram, m: Diagram) -> list[DiagramIso]:
    """All isomorphisms from ``n`` to ``m``, sorted by box map, then wire map.

    Each one pairs up the components of every code class in some order
    and maps each component of ``n`` onto its partner's walk from one
    of the partner's canonical roots.  Only this walks every canonical
    root, one per automorphism, which the output lists anyway.
    """
    matching = _match(n, m)
    if matching is None:
        return []
    keys = [str(f) for f in m.box_labels]
    per_class = []
    for comps_n, comps_m in matching:
        refs = [ref for ref, _ in comps_n]
        walks_m = [[_walk(m, keys, root)[1] for root in roots]
                   for _, roots in comps_m]
        per_class.append([
            list(zip(refs, targets))
            for partners in itertools.permutations(walks_m)
            for targets in itertools.product(*partners)
        ])
    isos = [_iso(n, m, itertools.chain.from_iterable(choice))
            for choice in itertools.product(*per_class)]
    isos.sort(key=lambda iso: (iso.box_map, iso.wire_map))
    return isos


def iso_count(n: Diagram, m: Diagram) -> int:
    """Number of isomorphisms from ``n`` to ``m``, computed without listing any."""
    matching = _match(n, m)
    return 0 if matching is None else _count(matching)


# -- deciding equality -------------------------------------------------

@dataclass(frozen=True)
class EqualityResult:
    """Outcome of :func:`decide_equal`.

    ``isomorphism`` is one isomorphism from ``diagram_a`` to ``diagram_b``,
    or None when there is none; where there are several it is a valid
    one, not necessarily the first in :func:`find_isos` order.
    """

    equal: bool
    diagram_a: Diagram
    diagram_b: Diagram
    isomorphism_count: int
    isomorphism: DiagramIso | None


def decide_equal(t1: tm.Term, t2: tm.Term, sig: Signature) -> EqualityResult:
    """Decide whether two terms of the same sort are equal in the free theory.

    Both terms are compiled, each walked once, closed at the diagram
    level with one shared pair of fresh boxes (:func:`compile_closed`),
    and compared up to diagram isomorphism.  Equality of the closed
    diagrams is equivalent to equality of the original terms.  No
    isomorphisms are listed: the count comes from the code classes.
    """
    _, (d1, d2) = compile_closed([t1, t2], sig)
    matching = _match(d1, d2)
    if matching is None:
        return EqualityResult(False, d1, d2, 0, None)
    iso = _iso(d1, d2, ((ref_n, ref_m)
                        for comps_n, comps_m in matching
                        for (ref_n, _), (ref_m, _) in zip(comps_n, comps_m)))
    return EqualityResult(True, d1, d2, _count(matching), iso)


# -- text formats ------------------------------------------------------

def export_dot(d: Diagram) -> str:
    """Graphviz source: boxes as nodes, wires as directed labeled edges."""
    lines = ["digraph diagram {"]
    if d.n_boxes or d.trivial_cycles:
        lines.append("  rankdir=LR;")
    for b, f in enumerate(d.box_labels):
        lines.append(f'  b{b} [label="{f.display_name}", shape=box];')
    for w in range(d.n_wires):
        src, _ = d.producer[w]
        dst, _ = d.consumer[w]
        lines.append(f'  b{src} -> b{dst} [label="w{w}: {d.wire_labels[w]}"];')
    for a, k in d.trivial_cycles:
        lines.append(f"  // trivial cycle {a} x{k}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_text(d: Diagram) -> str:
    """Serialize in the line format accepted by :func:`parse_diagram`."""
    lines = []
    for b, f in enumerate(d.box_labels):
        lines.append(f"box b{b} : {f.display_name}")
    for w in range(d.n_wires):
        src, j = d.producer[w]
        dst, k = d.consumer[w]
        lines.append(
            f"wire w{w} : {d.wire_labels[w]} from b{src}.out{j + 1} to b{dst}.in{k + 1}"
        )
    for a, count in d.trivial_cycles:
        lines.append(f"trivial {a} {count}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_diagram(text: str, sig: Signature) -> Diagram:
    """Parse the output of :func:`diagram_to_text` against a signature.

    Boxes must appear as ``b0, b1, ...`` in order, wires as ``w0, w1,
    ...``; labels are resolved through ``sig``.
    """
    box_labels: list[MorphismVar] = []
    wires: list[tuple[ObjectVar, tuple[int, int], tuple[int, int]]] = []
    trivial: list[tuple[ObjectVar, int]] = []
    for lineno, stripped in code_lines(text):
        parts = stripped.split()
        if parts[0] == "box":
            if len(parts) != 4 or parts[2] != ":" or parts[1] != f"b{len(box_labels)}":
                raise ParseError("expected 'box bN : NAME'", lineno)
            try:
                box_labels.append(sig.morphism(parts[3]))
            except Exception:
                raise ParseError(f"unknown morphism {parts[3]!r}", lineno) from None
        elif parts[0] == "wire":
            if (len(parts) != 8 or parts[2] != ":" or parts[4] != "from"
                    or parts[6] != "to" or parts[1] != f"w{len(wires)}"):
                raise ParseError(
                    "expected 'wire wN : OBJ from bI.outJ to bK.inL'", lineno)
            try:
                label = sig.object(parts[3])
            except Exception:
                raise ParseError(f"unknown object {parts[3]!r}", lineno) from None
            wires.append((label, _parse_port(parts[5], "out", lineno),
                          _parse_port(parts[7], "in", lineno)))
        elif parts[0] == "trivial":
            if len(parts) != 3:
                raise ParseError("expected 'trivial OBJ COUNT'", lineno)
            try:
                trivial.append((sig.object(parts[1]), int(parts[2])))
            except Exception:
                raise ParseError(f"bad trivial cycle line {stripped!r}", lineno) from None
        else:
            raise ParseError(f"unknown line {parts[0]!r}", lineno)

    box_inputs: list[list[int]] = [
        [-1] * len(f.dom) for f in box_labels]
    box_outputs: list[list[int]] = [
        [-1] * len(f.cod) for f in box_labels]
    for w, (label, (src, j), (dst, k)) in enumerate(wires):
        for b, port, table in ((src, j, box_outputs), (dst, k, box_inputs)):
            if not (0 <= b < len(box_labels)):
                raise ParseError(f"wire w{w} mentions unknown box b{b}")
            if not (0 <= port < len(table[b])):
                raise ParseError(f"wire w{w} mentions a port b{b} does not have")
            if table[b][port] != -1:
                raise ParseError(f"two wires attached to one port of b{b}")
            table[b][port] = w
    d = Diagram(
        tuple(label for label, _, _ in wires),
        tuple(box_labels),
        tuple(tuple(ws) for ws in box_inputs),
        tuple(tuple(ws) for ws in box_outputs),
        tuple(sorted(trivial, key=lambda item: item[0].name)),
    )
    d.validate()
    return d


def _parse_port(text: str, side: str, lineno: int) -> tuple[int, int]:
    box_part, dot, port_part = text.partition(".")
    if not (dot and box_part.startswith("b") and port_part.startswith(side)):
        raise ParseError(f"bad port reference {text!r}", lineno)
    try:
        return int(box_part[1:]), int(port_part[len(side):]) - 1
    except ValueError:
        raise ParseError(f"bad port reference {text!r}", lineno) from None
