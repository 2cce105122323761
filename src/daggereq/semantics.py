"""Matrix semantics of closed diagrams.

An interpretation assigns a finite dimension to every object variable
and a matrix (stored sparsely, entries indexed by codomain indices
followed by domain indices) to every morphism variable, with the
dagger going to the conjugate transpose.  The value of a closed
diagram is the sum over all index assignments to its wires of the
product of the matching box entries; each trivial cycle multiplies the
value by the dimension of its label.

Three evaluators compute that value: :func:`denote` contracts wires
greedily and serves both routes; :func:`denote_sweep`, which shares no
code with it, re-checks every witness; :func:`denote_naive` sums every
index assignment and is the test oracle for both.  The contraction is
split into a plan, :class:`Contraction`, which fixes the wire order and
the index maps from the wiring and the dimensions alone, and a run
under one interpretation; the witness search plans each diagram once
and runs the plan on every trial, at every dimension it tries.

The polynomial interpretation of a reference diagram M assigns to each
object the free space on the wires of M with that label and to each
box of M a formal variable.  The value of any simple diagram N under
it counts, in the coefficient of the all-boxes-of-M monomial, exactly
the isomorphisms from N to M.  ``daggereq poly`` prints that whole
polynomial.  The count alone is read in a quotient ring instead: set
every conjugate variable and every square ``x_i^2`` to zero.  The
quotient map is a ring homomorphism, so evaluating N in the quotient
gives the image of N's polynomial; the ideal is spanned by the
monomials with a conjugate or a repeated variable, and the target
monomial, each box variable once and unconjugated, is not one of them,
so its coefficient survives unchanged.  Monomials of the quotient are
bitmasks over M's boxes (:class:`~daggereq.scalars.MultilinearRing`),
and a term that repeats a variable is dropped as soon as it appears.
One builder, :func:`m_interpretation`, makes the interpretation in
either ring: each ring supplies the variable of a box and of its
conjugate, and the quotient's conjugate is zero.

The witness search, :func:`find_witness`, looks for an interpretation
giving two unequal diagrams different values.  It tries random matrices
at a few small dimensions first.  Over the exact Gaussian integers it
sizes their sample range and trial count by the Schwartz-Zippel bound
(Schwartz 1980, Zippel 1979): a value is a polynomial of degree at most
the box count in the sampled parts, so a random point misses a nonzero
difference with a probability the bound makes small.  Some unequal
pairs agree at every small dimension, such as a trace word and its
reverse on 2x2 matrices.  The search then ends with the interpretation
from the completeness proof: the same builder, with each box variable
of the reference diagram set to a random sample.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from .diagram import Diagram
from .errors import DaggereqError, InterpretationError, ParseError
from .scalars import (
    ConjPolynomial,
    ConjPolynomialRing,
    Monomial,
    MultilinearRing,
    ScalarRing,
)
from .signature import MorphismVar, ObjectVar, Signature, code_lines


@dataclass(frozen=True, eq=False)
class Tensor:
    """Sparse matrix of a morphism; absent entries are zero.

    Keys of ``entries`` are full index tuples: codomain indices first,
    then domain indices.
    """

    cod_dims: tuple[int, ...]
    dom_dims: tuple[int, ...]
    entries: Mapping[tuple[int, ...], Any]

    def check(self) -> None:
        dims = self.cod_dims + self.dom_dims
        for idx in self.entries:
            if len(idx) != len(dims) or any(
                    not 0 <= i < d for i, d in zip(idx, dims)):
                raise InterpretationError(f"entry index {idx} out of bounds {dims}")

    def dagger(self, ring: ScalarRing) -> Tensor:
        k = len(self.cod_dims)
        return Tensor(
            self.dom_dims,
            self.cod_dims,
            {idx[k:] + idx[:k]: ring.conj(v) for idx, v in self.entries.items()},
        )

    def equal(self, other: Tensor, ring: ScalarRing) -> bool:
        if (self.cod_dims, self.dom_dims) != (other.cod_dims, other.dom_dims):
            return False
        for idx in set(self.entries) | set(other.entries):
            a = self.entries.get(idx, ring.zero)
            b = other.entries.get(idx, ring.zero)
            if not ring.eq(a, b):
                return False
        return True


@dataclass
class Interpretation:
    """Dimensions for objects and matrices for morphism variables."""

    ring: ScalarRing
    space: dict[ObjectVar, int]
    matrix: dict[MorphismVar, Tensor]

    def dim(self, a: ObjectVar) -> int:
        try:
            return self.space[a]
        except KeyError:
            raise InterpretationError(f"object {a} has no dimension") from None

    def tensor(self, f: MorphismVar) -> Tensor:
        try:
            return self.matrix[f]
        except KeyError:
            raise InterpretationError(
                f"morphism {f.display_name!r} has no matrix") from None

    def check(self) -> None:
        """Validate shapes against sorts and the dagger pairing."""
        _check_space(self.space, self.matrix)
        for f, t in self.matrix.items():
            try:
                shape = _matrix_shape(f, self.space)
            except KeyError as exc:
                raise InterpretationError(
                    f"object {exc.args[0]} has no dimension") from None
            if (t.cod_dims, t.dom_dims) != shape:
                raise InterpretationError(
                    f"matrix shape of {f.display_name!r} does not match its sort")
            t.check()
        for f, t in self.matrix.items():
            partner = self.matrix.get(f.dagger())
            if partner is not None and not partner.equal(t.dagger(self.ring), self.ring):
                raise InterpretationError(
                    f"matrix of {f.dagger().display_name!r} is not the "
                    f"conjugate transpose of {f.display_name!r}")


def _matrix_shape(f: MorphismVar, space: Mapping[ObjectVar, int],
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The dimensions of ``f``'s matrix: its codomain's, then its
    domain's.  Raises KeyError for an object ``space`` lacks."""
    return (tuple(space[sf.base] for sf in f.cod),
            tuple(space[sf.base] for sf in f.dom))


def _check_space(space: Mapping[ObjectVar, int], morphisms: Iterable[MorphismVar]) -> None:
    """Raise unless every dimension is nonnegative and no sort is starred."""
    for a, d in space.items():
        if d < 0:
            raise InterpretationError(f"dimension of {a} must be nonnegative")
    for f in morphisms:
        if f.dom.has_stars or f.cod.has_stars:
            raise InterpretationError(
                f"cannot interpret starred sorts of {f.display_name!r}")


# -- evaluation --------------------------------------------------------

def _check_shapes(d: Diagram, interp: Interpretation) -> None:
    for b, f in enumerate(d.box_labels):
        t = interp.tensor(f)
        want_cod = tuple(interp.dim(d.wire_labels[w]) for w in d.box_outputs[b])
        want_dom = tuple(interp.dim(d.wire_labels[w]) for w in d.box_inputs[b])
        if (t.cod_dims, t.dom_dims) != (want_cod, want_dom):
            raise InterpretationError(
                f"matrix shape of {f.display_name!r} does not match box b{b}")


def _trivial_factor(d: Diagram, interp: Interpretation, value: Any) -> Any:
    ring = interp.ring
    for a, k in d.trivial_cycles:
        value = ring.mul(value, ring.from_int(interp.dim(a) ** k))
    return value


def _tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``idx -> tuple(idx[p] for p in positions)``."""
    if not positions:
        return lambda idx: ()
    if len(positions) == 1:
        p = positions[0]  # itemgetter of one position returns a bare item
        return lambda idx: (idx[p],)
    return itemgetter(*positions)


class Contraction:
    """The greedy pairwise contraction of one diagram, planned once.

    A node is a sparse tensor with one axis per distinct wire.  A box's
    node has its axes in port order, each wire at its first port, so
    the node of a box without a self-loop is its label's matrix as
    stored; a node that a step makes has its axes in increasing wire
    order.  The plan starts from one node per box and repeatedly
    removes the wire whose removal leaves the smallest node, by the
    dimensions in ``space``, ties going to the lower wire: a wire held
    by one node is summed over, a wire held by two nodes joins them on
    every axis they share.  The order and the index maps of every step
    depend only on the wiring and the dimensions, never on the
    entries, so :meth:`run` evaluates the diagram under any
    interpretation with dict joins and ring operations alone.  The
    dimensions only set the cost of the order: a plan stays correct
    under an interpretation with other dimensions.
    """

    def __init__(self, d: Diagram, space: Mapping[ObjectVar, int]):
        self.diagram = d
        # Per box: its label, the port pairs a self-loop forces equal,
        # and for a box with one, the getter of the node key from an
        # entry index.
        self._boxes: list[tuple[MorphismVar, tuple[tuple[int, int], ...],
                                Callable | None]] = []
        axes_of: dict[int, tuple[int, ...]] = {}
        holders: dict[int, set[int]] = {}  # the nodes that hold each wire
        for b, f in enumerate(d.box_labels):
            ports = tuple(d.box_outputs[b]) + tuple(d.box_inputs[b])
            first: dict[int, int] = {}
            for p, w in enumerate(ports):
                first.setdefault(w, p)
            loops = tuple((p, first[w]) for p, w in enumerate(ports) if first[w] != p)
            self._boxes.append(
                (f, loops, _tuple_getter(list(first.values())) if loops else None))
            axes_of[b] = tuple(first)
            for w in first:
                holders.setdefault(w, set()).add(b)
        try:
            dims = {w: space[d.wire_labels[w]] for w in holders}
        except KeyError as exc:
            raise InterpretationError(
                f"object {exc.args[0]} has no dimension") from None

        def merged_size(w: int) -> int:
            size = 1
            for a in set().union(*(axes_of[nid] for nid in holders[w])) - {w}:
                size *= dims[a]
            return size

        # A step changes the merged size only of the wires on the node
        # it makes, so the heap holds every current (size, wire) pair
        # plus stale ones, which are skipped.
        cost = {w: merged_size(w) for w in holders}
        heap = [(c, w) for w, c in cost.items()]
        heapq.heapify(heap)
        # Per step: the input node ids (the second None for a sum over
        # one node's own axis), the getters of the shared-axis join keys
        # of both inputs, and the getter of the output key from the
        # input index (both inputs' indices, concatenated, for a join).
        self._steps: list[tuple[int, int | None, Callable | None,
                                Callable | None, Callable]] = []
        while holders:
            c, w = heapq.heappop(heap)
            if w not in holders or cost[w] != c:
                continue
            involved = sorted(holders.pop(w))
            old = [axes_of.pop(nid) for nid in involved]
            if len(involved) == 1:
                (axes,) = old
                new = tuple(sorted(a for a in axes if a != w))
                self._steps.append((involved[0], None, None, None,
                                    _tuple_getter([axes.index(a) for a in new])))
            else:
                a1, a2 = old
                joined = a1 + a2
                shared = sorted(set(a1) & set(a2))
                new = tuple(sorted(set(joined) - {w}))
                self._steps.append((
                    involved[0], involved[1],
                    itemgetter(*(a1.index(a) for a in shared)),
                    itemgetter(*(a2.index(a) for a in shared)),
                    _tuple_getter([joined.index(a) for a in new]),
                ))
            nid = d.n_boxes + len(self._steps) - 1
            axes_of[nid] = new
            for a in new:
                holders[a].difference_update(involved)
                holders[a].add(nid)
            for a in new:
                cost[a] = merged_size(a)
                heapq.heappush(heap, (cost[a], a))
        # Nodes left have no axes; their values multiply in id order.
        self._scalars = sorted(axes_of)

    def run(self, interp: Interpretation) -> Any:
        """Value of the diagram under ``interp``.

        The caller checks the matrix shapes first (see :func:`denote`).
        """
        ring = interp.ring
        add, mul = ring.add, ring.mul
        # No step mutates a node's dict, so a box's node may be its
        # label's entries themselves.
        nodes: list[Mapping[tuple[int, ...], Any] | None] = []
        for f, loops, get in self._boxes:
            entries = interp.tensor(f).entries
            if loops:
                entries = {get(idx): v for idx, v in entries.items()
                           if all(idx[p] == idx[q] for p, q in loops)}
            nodes.append(entries)
        for i1, i2, get1, get2, get_out in self._steps:
            e1 = nodes[i1]
            nodes[i1] = None
            out: dict[tuple[int, ...], Any] = {}
            if i2 is None:
                for idx, v in e1.items():
                    key = get_out(idx)
                    out[key] = add(out[key], v) if key in out else v
            else:
                e2 = nodes[i2]
                nodes[i2] = None
                grouped: dict[Any, list[tuple[tuple[int, ...], Any]]] = {}
                for idx2, v2 in e2.items():
                    grouped.setdefault(get2(idx2), []).append((idx2, v2))
                for idx1, v1 in e1.items():
                    for idx2, v2 in grouped.get(get1(idx1), ()):
                        key = get_out(idx1 + idx2)
                        term = mul(v1, v2)
                        out[key] = add(out[key], term) if key in out else term
            nodes.append(out)
        value = ring.one
        for nid in self._scalars:
            value = mul(value, nodes[nid].get((), ring.zero))
        return _trivial_factor(self.diagram, interp, value)


def denote(d: Diagram, interp: Interpretation) -> Any:
    """Value of a closed diagram, by greedy pairwise contraction.

    Plans the :class:`Contraction` at the dimensions of ``interp`` and
    runs it once; to evaluate one diagram under many interpretations,
    build the plan once and call its :meth:`Contraction.run`.  Equals
    :func:`denote_naive` exactly over exact rings; over floats only the
    summation order differs.
    """
    _check_shapes(d, interp)
    return Contraction(d, interp.space).run(interp)


def denote_sweep(d: Diagram, interp: Interpretation) -> Any:
    """Value of a closed diagram by the defining sum, taken box by box.

    Variable elimination along the box order.  ``states`` maps indices
    on the front (the wires already met that a later box still uses)
    to the partial sum over the boxes met so far; each box's entries
    are grouped by their indices on front wires and joined against the
    states, and a wire is summed out after its last box.  The work is
    at most boxes x dims^wires, and O(n*d^3) on a trace word of n
    letters.  Shares no code with :func:`denote`'s contraction, so the
    two check each other.
    """
    _check_shapes(d, interp)
    ring = interp.ring
    box_ports = [tuple(outs) + tuple(ins)
                 for outs, ins in zip(d.box_outputs, d.box_inputs)]
    last = {w: b for b, ports in enumerate(box_ports) for w in ports}
    front: tuple[int, ...] = ()
    states: dict[tuple[int, ...], Any] = {(): ring.one}
    for b, ports in enumerate(box_ports):
        first: dict[int, int] = {}
        for p, w in enumerate(ports):
            first.setdefault(w, p)
        met = tuple(w for w in first if w in front)
        new = tuple(w for w in first if w not in front)
        groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], Any]]] = {}
        for idx, v in interp.tensor(d.box_labels[b]).entries.items():
            if any(idx[p] != idx[first[w]] for p, w in enumerate(ports)):
                continue  # a self-loop wire would carry two indices
            groups.setdefault(tuple(idx[first[w]] for w in met), []).append(
                (tuple(idx[first[w]] for w in new), v))
        seen = front + new
        next_front = tuple(w for w in seen if last[w] > b)
        at_met = [front.index(w) for w in met]
        keep = [seen.index(w) for w in next_front]
        out: dict[tuple[int, ...], Any] = {}
        for state, acc in states.items():
            for rest, v in groups.get(tuple(state[p] for p in at_met), ()):
                full = state + rest
                key = tuple(full[p] for p in keep)
                term = ring.mul(acc, v)
                out[key] = ring.add(out[key], term) if key in out else term
        front, states = next_front, out
    return _trivial_factor(d, interp, states.get((), ring.zero))


def denote_naive(d: Diagram, interp: Interpretation) -> Any:
    """Value of a closed diagram by the defining sum over indexings.

    Exponential in the number of wires; the test oracle for
    :func:`denote` and :func:`denote_sweep`.
    """
    _check_shapes(d, interp)
    ring = interp.ring
    dims = [interp.dim(a) for a in d.wire_labels]
    tensors = [interp.tensor(f) for f in d.box_labels]
    total = ring.zero
    for choice in itertools.product(*(range(k) for k in dims)):
        prod = ring.one
        for b in range(d.n_boxes):
            idx = tuple(choice[w] for w in d.box_outputs[b]) + tuple(
                choice[w] for w in d.box_inputs[b])
            v = tensors[b].entries.get(idx)
            if v is None:
                prod = None
                break
            prod = ring.mul(prod, v)
        if prod is not None:
            total = ring.add(total, prod)
    return _trivial_factor(d, interp, total)


# -- the polynomial interpretation of a reference diagram ---------------

def m_interpretation(m: Diagram, ring: ScalarRing = ConjPolynomialRing()) -> Interpretation:
    """Interpret objects by the wires of ``m`` and boxes by variables.

    A box ``b`` labeled ``f`` puts ``ring.variable(b, False)`` into the
    matrix of ``f`` at its wire positions and ``ring.variable(b, True)``
    into that of ``f†`` at the transposed ones.  One builder serves both
    rings: in the default one the result is a valid dagger
    interpretation; in :class:`~daggereq.scalars.MultilinearRing` the
    conjugate variables are zero and left out, and so is the matrix of
    a daggered label that no box of ``m`` carries.
    """
    if not m.is_simple:
        raise InterpretationError("reference diagram must have no trivial cycles")
    space: dict[ObjectVar, int] = {}
    pos = []  # each wire's position among the wires with its label
    for a in m.wire_labels:
        pos.append(space.get(a, 0))
        space[a] = pos[-1] + 1
    matrix: dict[MorphismVar, Tensor] = {}
    dagger: dict[MorphismVar, MorphismVar] = {}
    for b, f in enumerate(m.box_labels):
        outs, ins = m.box_outputs[b], m.box_inputs[b]
        if f not in matrix:
            fd = dagger[f] = f.dagger()
            dagger[fd] = f
            cod, dom = _matrix_shape(f, space)
            matrix[f], matrix[fd] = Tensor(cod, dom, {}), Tensor(dom, cod, {})
        out_idx = tuple(pos[w] for w in outs)
        in_idx = tuple(pos[w] for w in ins)
        for g, idx, v in ((f, out_idx + in_idx, ring.variable(b, False)),
                          (dagger[f], in_idx + out_idx, ring.variable(b, True))):
            if v:  # zero for a conjugate in the multilinear quotient
                entries = matrix[g].entries
                entries[idx] = ring.add(entries[idx], v) if idx in entries else v
    # Zero matrices are left out, so _reference_value skips denote for them.
    return Interpretation(ring, space, {f: t for f, t in matrix.items() if t.entries})


def all_boxes_monomial(m: Diagram) -> Monomial:
    return Monomial.of(*(((b, False)) for b in range(m.n_boxes)))


def _reference_value(n: Diagram, m: Diagram, ring: ScalarRing) -> Any:
    """The value of ``n`` under the interpretation of ``m`` in ``ring``.

    The value is zero when ``n`` uses an object or a box label that
    ``m`` lacks: no box of ``m`` can be its image.
    """
    interp = m_interpretation(m, ring)
    if (any(a not in interp.space for a in n.wire_labels)
            or any(f not in interp.matrix for f in n.box_labels)):
        return ring.zero
    return denote(n, interp)


def iso_polynomial(n: Diagram, m: Diagram) -> tuple[ConjPolynomial, Monomial]:
    """The value of ``n`` under the polynomial interpretation of ``m``,
    and the monomial whose coefficient in it counts isomorphisms."""
    return _reference_value(n, m, ConjPolynomialRing()), all_boxes_monomial(m)


def iso_count_semantic(n: Diagram, m: Diagram) -> int:
    """Count isomorphisms from ``n`` to ``m`` without searching for any.

    The count is the coefficient of the monomial with each box variable
    of ``m`` exactly once, unconjugated, in the value of ``n`` under
    the polynomial interpretation of ``m``.  That value is computed in
    the quotient where conjugate variables and squares vanish: the
    quotient map is a ring homomorphism and the ideal is spanned by
    monomials other than the target, so the coefficient is exact (see
    the module docstring).  The count is 0 when ``n`` uses an object or
    a box label that ``m`` lacks.
    """
    if not (n.is_simple and m.is_simple):
        raise InterpretationError("isomorphism counting needs simple diagrams")
    return _reference_value(n, m, MultilinearRing()).get((1 << m.n_boxes) - 1, 0)


# -- random interpretations and witnesses --------------------------------

# Dimensions tried in turn, every object at once, when the search is
# given none; the completeness construction follows them.
ESCALATION = (2, 3)
# The dimension of an object that a given ``dims`` mapping leaves out.
DEFAULT_DIM = 3
# Trials per dimension over floats, where the Schwartz-Zippel bound
# does not hold.
DEFAULT_TRIALS = 100
# Trials per dimension over an exact ring, and the bits of the sample
# range per unit of degree: one trial at magnitude R >= deg * 2^20
# misses a nonzero difference of degree deg with probability at most
# deg / (2R + 1) < 2^-20, so two trials miss with at most 2^-40.
SIZED_TRIALS = 2
SIZED_BITS = 20
# Most matrix entries one random interpretation may hold.  Each entry
# costs a few hundred bytes, so this caps one interpretation at a few
# hundred megabytes.
ENTRY_BUDGET = 1_000_000


def sample_magnitude(n_boxes: int) -> int:
    """The least power of two at least ``max(n_boxes, 1) * 2^20``."""
    return 1 << ((max(n_boxes, 1) << SIZED_BITS) - 1).bit_length()


def _over_budget(sig: Signature, space: Mapping[ObjectVar, int]) -> str | None:
    """Why random matrices for ``sig`` at ``space`` are too large, or None."""
    size = 0
    for f in sig.base_morphisms:
        cod, dom = _matrix_shape(f, space)
        size += math.prod(cod + dom)
    if size <= ENTRY_BUDGET:
        return None
    return (f"a random interpretation at these dimensions needs {size} matrix "
            f"entries, over the budget of {ENTRY_BUDGET}")


def random_interpretation(sig: Signature, dims: Mapping[ObjectVar, int] | int,
                          ring: ScalarRing, seed: int = 0,
                          magnitude: int | None = None) -> Interpretation:
    """Dense random matrices for every morphism variable of ``sig``.

    ``sig`` must be star-free (translate first).  Shapes come from the
    dimensions and dagger partners get the conjugate transpose, so the
    result is valid by construction and :meth:`Interpretation.check`
    is not run on it.  Entries are ``ring.sample(rng, magnitude)``, or
    ``ring.sample(rng)`` with the ring's own range when ``magnitude``
    is None.  A request for more than :data:`ENTRY_BUDGET` entries
    raises before any entry is made.
    """
    rng = random.Random(seed)
    space: dict[ObjectVar, int] = {}
    for a in sig.objects:
        d = dims if isinstance(dims, int) else dims.get(a)
        if d is None:
            raise InterpretationError(f"no dimension given for object {a}")
        space[a] = d
    _check_space(space, sig.base_morphisms)
    over = _over_budget(sig, space)
    if over:
        raise InterpretationError(over)
    extra = () if magnitude is None else (magnitude,)
    matrix: dict[MorphismVar, Tensor] = {}
    for f in sig.base_morphisms:
        cod_dims, dom_dims = _matrix_shape(f, space)
        entries = {
            idx: ring.sample(rng, *extra)
            for idx in itertools.product(*(range(k) for k in cod_dims + dom_dims))
        }
        t = Tensor(cod_dims, dom_dims, entries)
        matrix[f] = t
        matrix[f.dagger()] = t.dagger(ring)
    return Interpretation(ring, space, matrix)


class _PointRing(ScalarRing):
    """Box variables at one point of ``ring``, for :func:`m_interpretation`:
    box ``b``'s variable is ``point[b]`` and its conjugate variable is
    the conjugate of that value."""

    def __init__(self, ring: ScalarRing, point: Sequence[Any]):
        self.ring = ring
        self.point = point

    def variable(self, box: int, conjugated: bool) -> Any:
        x = self.point[box]
        return self.ring.conj(x) if conjugated else x


def _is_prime(k: int) -> bool:
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return k >= 2


def _construction(n: Diagram, m: Diagram, sig: Signature, ring: ScalarRing,
                  seed: int, magnitude: int | None) -> Interpretation:
    """The interpretation of the completeness proof, at a random point.

    Each object gets the wires of ``m`` that carry it and each box of
    ``m`` a random sample, placed by :func:`m_interpretation`.  A label
    of ``sig`` that ``m`` lacks gets a zero matrix, and an object that
    ``m`` lacks dimension 1.  The value of either diagram is then a
    polynomial in the samples, of degree at most its box count, and the
    coefficient of the product of all of them counts the isomorphisms
    from its simple part to ``m``'s.  That count is at least 1 for
    ``m`` and 0 for an ``n`` whose simple part is not isomorphic to
    ``m``'s, so the two values differ as polynomials.  When the trivial
    cycles differ, every dimension is padded to a distinct prime at
    least ``max(2, wire count)``: padding leaves the simple parts'
    values alone, and distinct primes make the factors the trivial
    cycles contribute differ.
    """
    reference = m.without_trivial_cycles()
    rng = random.Random(seed)
    extra = () if magnitude is None else (magnitude,)
    point = [ring.sample(rng, *extra) for _ in range(reference.n_boxes)]
    interp = m_interpretation(reference, _PointRing(ring, point))
    space = {a: interp.space.get(a, 1) for a in sig.objects}
    if n.trivial_cycles != m.trivial_cycles:
        used: set[int] = set()
        for a in sig.objects:
            p = max(2, space[a])
            while p in used or not _is_prime(p):
                p += 1
            used.add(p)
            space[a] = p
    matrix: dict[MorphismVar, Tensor] = {}
    for f in sig.morphisms:
        t = interp.matrix.get(f)
        matrix[f] = Tensor(*_matrix_shape(f, space),
                           t.entries if t is not None else {})
    return Interpretation(ring, space, matrix)


@dataclass
class Witness:
    """A concrete interpretation separating two diagrams.

    ``construction`` is True when the interpretation comes from the
    completeness construction rather than from random matrices.
    """

    trial: int
    seed: int
    interpretation: Interpretation
    value_a: Any
    value_b: Any
    construction: bool = False


def _signature_of(diagrams: tuple[Diagram, ...]) -> Signature:
    objects: set[ObjectVar] = set()
    bases: dict[str, MorphismVar] = {}
    for d in diagrams:
        objects.update(d.wire_labels)
        objects.update(a for a, _ in d.trivial_cycles)
        for f in d.box_labels:
            base = f.undaggered()
            if bases.setdefault(base.name, base) != base:
                raise InterpretationError(
                    f"conflicting sorts for morphism {base.name!r}")
            for sf in tuple(base.dom) + tuple(base.cod):
                objects.add(sf.base)
    return Signature(
        "traced-monoidal",
        tuple(sorted(objects, key=lambda a: a.name)),
        tuple(bases[name] for name in sorted(bases)),
    )


def find_witness(n: Diagram, m: Diagram,
                 dims: Mapping[ObjectVar, int] | int | None,
                 ring: ScalarRing, trials: int | None = None, seed: int = 0,
                 on_miss: Callable[[str], None] | None = None,
                 ) -> Witness | None:
    """Search interpretations for one giving ``n`` and ``m`` different
    values.

    With ``dims`` given, every trial draws random matrices at those
    dimensions for the objects the two diagrams use, and at
    :data:`DEFAULT_DIM` for any such object a mapping leaves out.  With
    ``dims`` None, the trials put every object at each dimension of
    :data:`ESCALATION` in turn, and when all of them miss, the search ends
    with the completeness construction (see :func:`_construction`), which
    separates any two unequal diagrams with high probability but at
    dimensions as large as the wire counts of ``m``.  It comes last because
    the smallest separating dimensions make the clearest witness.

    On an exact ring, the sample range is sized by the Schwartz-Zippel
    bound.  Each value is a polynomial of degree at most
    deg = max(boxes of ``n``, boxes of ``m``, 1) in the sampled real and
    imaginary parts, so with parts drawn from +-R, R the least power of
    two at least deg * 2^20 (:func:`sample_magnitude`), one trial misses
    a nonzero difference with probability at most 2^-20, and the
    :data:`SIZED_TRIALS` trials run at each dimension miss with at most
    2^-40.  An explicit ``trials`` changes only the count.  Over floats
    the bound does not hold: the search keeps the ring's own sample
    range and runs :data:`DEFAULT_TRIALS` trials by default.  With
    ``dims`` None, a dimension whose random matrices would hold more
    than :data:`ENTRY_BUDGET` entries is skipped with a note; with
    ``dims`` given, the budget error is raised.

    The signature is collected and the :class:`Contraction` of each
    diagram planned once per search, at the first dimensions tried, and
    the plans run at every dimension; the matrix shapes are checked
    once per dimension.  Every candidate is re-checked with the
    independent sweep evaluator before it is reported, and the reported
    values are the sweep's.  Values are compared with ``ring.eq``, so
    over floats the ring's tolerance decides, and a value that overflowed
    to inf or nan separates nothing.  On an exact ring the two evaluators
    must agree.  ``on_miss`` receives a note for each dimension, or the
    construction, that gave no witness, with the number of trials run
    there and how many of them gave non-finite values.
    """
    sig = _signature_of((n, m))
    magnitude = sample_magnitude(max(n.n_boxes, m.n_boxes)) if ring.exact else None
    if trials is None:
        trials = SIZED_TRIALS if ring.exact else DEFAULT_TRIALS
    if dims is None:
        stages = [(k, f"at dimensions [{k}]") for k in ESCALATION]
        stages.append((None, "from the completeness construction"))
    elif isinstance(dims, int):
        stages = [(dims, f"at dimensions [{dims}]")]
    else:
        dims = {a: dims.get(a, DEFAULT_DIM) for a in sig.objects}
        stages = [(dims, f"at dimensions {sorted(set(dims.values()))}")]
    plans = None
    for stage_dims, where in stages:
        if dims is None and stage_dims is not None:
            over = _over_budget(sig, dict.fromkeys(sig.objects, stage_dims))
            if over:  # too large to try; the construction still can
                if on_miss is not None:
                    on_miss(f"no witness {where}: {over}")
                continue
        overflows = 0
        for trial in range(trials):
            trial_seed = seed * 1_000_003 + trial
            if stage_dims is None:
                interp = _construction(n, m, sig, ring, trial_seed, magnitude)
            else:
                interp = random_interpretation(sig, stage_dims, ring, trial_seed,
                                               magnitude)
            if trial == 0:  # the shapes are the same at every trial of a stage
                _check_shapes(n, interp)
                _check_shapes(m, interp)
            if plans is None:
                plans = Contraction(n, interp.space), Contraction(m, interp.space)
            va, vb = plans[0].run(interp), plans[1].run(interp)
            if ring.eq(va, vb):
                continue
            sa, sb = denote_sweep(n, interp), denote_sweep(m, interp)
            if ring.exact and not (ring.eq(sa, va) and ring.eq(sb, vb)):
                raise DaggereqError("evaluator mismatch on an exact ring")
            if ring.eq(sa, sb):
                continue
            if not (ring.is_finite(sa) and ring.is_finite(sb)):
                overflows += 1
                continue
            return Witness(trial, trial_seed, interp, sa, sb,
                           construction=stage_dims is None)
        if on_miss is not None:
            why = f", {overflows} of them with non-finite values" if overflows else ""
            on_miss(f"no witness {where} after {trials} trials{why}")
    return None


# -- text format ---------------------------------------------------------

def interpretation_to_text(interp: Interpretation) -> str:
    """Serialize dimensions and matrix entries, zeros omitted.

    A zero matrix with at least one entry writes its first entry, so
    that the text still gives it a matrix.
    """
    lines = []
    for a in sorted(interp.space, key=lambda a: a.name):
        lines.append(f"dim {a} = {interp.space[a]}")
    ring = interp.ring
    for f in sorted(interp.matrix, key=lambda f: f.display_name):
        t = interp.matrix[f]
        k = len(t.cod_dims)
        shown = [(idx, v) for idx, v in sorted(t.entries.items())
                 if not ring.is_zero(v)]
        if not shown and all(t.cod_dims + t.dom_dims):
            shown = [((0,) * len(t.cod_dims + t.dom_dims), ring.zero)]
        for idx, v in shown:
            cod = ",".join(str(i) for i in idx[:k])
            dom = ",".join(str(i) for i in idx[k:])
            lines.append(f"{f.display_name}[{cod}|{dom}] = {ring.format(v)}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_interpretation(text: str, sig: Signature, ring: ScalarRing) -> Interpretation:
    """Parse the output of :func:`interpretation_to_text` against ``sig``."""
    space: dict[ObjectVar, int] = {}
    raw_entries: dict[MorphismVar, dict[tuple[int, ...], Any]] = {}
    for lineno, stripped in code_lines(text):
        if stripped.startswith("dim "):
            parts = stripped[4:].split("=")
            if len(parts) != 2:
                raise ParseError("expected 'dim OBJ = N'", lineno)
            try:
                space[sig.object(parts[0].strip())] = int(parts[1])
            except Exception:
                raise ParseError(f"bad dimension line {stripped!r}", lineno) from None
            continue
        head, eq, value_text = stripped.partition("=")
        name, bracket, index_text = head.strip().partition("[")
        if not (eq and bracket and index_text.endswith("]")):
            raise ParseError(f"bad entry line {stripped!r}", lineno)
        if not sig.has_morphism(name):
            raise ParseError(f"unknown morphism {name!r}", lineno)
        f = sig.morphism(name)
        cod_text, bar, dom_text = index_text[:-1].partition("|")
        if not bar:
            raise ParseError("entry index needs a '|' separator", lineno)
        try:
            cod_idx = tuple(int(s) for s in cod_text.split(",") if s.strip())
            dom_idx = tuple(int(s) for s in dom_text.split(",") if s.strip())
        except ValueError:
            raise ParseError(f"bad index in {stripped!r}", lineno) from None
        try:
            value = ring.parse(value_text.strip())
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        raw_entries.setdefault(f, {})[cod_idx + dom_idx] = value
    matrix: dict[MorphismVar, Tensor] = {}
    for f, entries in raw_entries.items():
        try:
            matrix[f] = Tensor(*_matrix_shape(f, space), entries)
        except KeyError as exc:
            raise ParseError(f"no 'dim' line for object {exc.args[0]}") from None
    interp = Interpretation(ring, space, matrix)
    interp.check()
    return interp
