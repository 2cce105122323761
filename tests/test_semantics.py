import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from daggereq import (
    ConjPolynomial,
    Diagram,
    GaussianInt,
    GaussianIntegerRing,
    ComplexFloatRing,
    Interpretation,
    InterpretationError,
    Monomial,
    ObjectVar,
    Tensor,
    all_boxes_monomial,
    compile_term,
    denote,
    denote_naive,
    denote_sweep,
    find_witness,
    interpretation_to_text,
    iso_count,
    iso_count_semantic,
    m_interpretation,
    mirror,
    parse_interpretation,
    parse_signature,
    parse_term,
    random_interpretation,
)
from daggereq import cli, semantics
from daggereq.scalars import MultilinearRing
from daggereq.signature import int_translate

import genutil

A, B, X = ObjectVar("A"), ObjectVar("B"), ObjectVar("X")
gauss = GaussianIntegerRing()


def x(b, conj=False):
    return ConjPolynomial.variable(b, conjugated=conj)


def test_tensor_dagger_swaps_index_blocks_and_conjugates():
    t = Tensor((2,), (3,), {(0, 2): GaussianInt(1, 5), (1, 0): GaussianInt(2, 0)})
    td = t.dagger(gauss)
    assert td.cod_dims == (3,) and td.dom_dims == (2,)
    assert td.entries == {(2, 0): GaussianInt(1, -5), (0, 1): GaussianInt(2, 0)}
    assert td.dagger(gauss).entries == t.entries
    with pytest.raises(InterpretationError):
        Tensor((2,), (), {(5,): GaussianInt(1, 0)}).check()


def test_interpretation_check_verifies_dagger_pairs():
    sig = parse_signature("object A\nmorphism h : A -> A")
    h = sig.morphism("h")
    good = Interpretation(gauss, {A: 1}, {
        h: Tensor((1,), (1,), {(0, 0): GaussianInt(0, 1)}),
        h.dagger(): Tensor((1,), (1,), {(0, 0): GaussianInt(0, -1)}),
    })
    good.check()
    bad = Interpretation(gauss, {A: 1}, {
        h: Tensor((1,), (1,), {(0, 0): GaussianInt(0, 1)}),
        h.dagger(): Tensor((1,), (1,), {(0, 0): GaussianInt(0, 1)}),
    })
    with pytest.raises(InterpretationError):
        bad.check()


def test_m_interpretation_of_the_worked_reference(worked):
    sig, _, tM = worked
    m = compile_term(tM, sig)
    interp = m_interpretation(m)
    assert interp.space == {A: 3, B: 2}
    f = m.box_labels[1]
    g = m.box_labels[0]
    # boxes: b0 = g, b1 = f, b2 = f-dagger; A-wires w1,w2,w3; B-wires w0,w4
    assert interp.matrix[f].entries == {(1, 2, 0): x(1), (1, 2, 1): x(2, True)}
    assert interp.matrix[g].entries == {(0, 0, 0, 1): x(0)}
    assert interp.matrix[f.dagger()].entries == {
        (0, 1, 2): x(1, True), (1, 1, 2): x(2)}
    assert interp.matrix[g.dagger()].entries == {(0, 1, 0, 0): x(0, True)}
    interp.check()


def test_worked_example_coefficient_is_one(worked):
    sig, tN, tM = worked
    n, m = compile_term(tN, sig), compile_term(tM, sig)
    value = denote(n, m_interpretation(m))
    assert value.coefficient(all_boxes_monomial(m)) == 1
    assert iso_count_semantic(n, m) == 1
    assert iso_count_semantic(m, n) == 1


def test_two_disjoint_loops_have_two_automorphisms():
    sig = parse_signature("object A\nmorphism h : A -> A")
    d = compile_term(parse_term("tr[A](h) x tr[A](h)", sig), sig)
    interp = m_interpretation(d)
    assert interp.space == {A: 2}
    value = denote(d, interp)
    x0, x1 = x(0), x(1)
    assert value == (x0 + x1) * (x0 + x1)
    assert value.coefficient(Monomial.of((0, False), (1, False))) == 2
    assert iso_count_semantic(d, d) == 2 == iso_count(d, d)


def test_semantic_count_is_zero_for_foreign_labels(worked):
    sig, tN, _ = worked
    n = compile_term(tN, sig)
    other = parse_signature("object X\nmorphism a : X -> X")
    d = compile_term(parse_term("tr[X](a)", other), other)
    assert iso_count_semantic(n, d) == 0
    assert iso_count_semantic(d, n) == 0
    empty = Diagram((), (), (), ())
    assert iso_count_semantic(empty, empty) == 1
    assert iso_count_semantic(d, empty) == 0
    assert iso_count_semantic(empty, d) == 0


def _polynomial_count(n, m):
    value, target = semantics.iso_polynomial(n, m)
    return value.coefficient(target)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["permuted", "doubled", "random"]))
def test_truncated_count_agrees_with_both_other_counts(seed, kind):
    # gen_signature's pool holds every label and its dagger.
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    n = genutil.random_simple_diagram(rng, sig, max_boxes=4, max_wires=6)
    if kind == "doubled":
        n = genutil.disjoint_union(n, genutil.permuted_copy(n, rng))
    if kind == "random":
        m = genutil.random_simple_diagram(rng, sig, max_boxes=4, max_wires=6)
    else:
        m = genutil.permuted_copy(n, rng)
    count = iso_count_semantic(n, m)
    assert count == iso_count(n, m) == _polynomial_count(n, m)
    if kind != "random":
        assert count > 0


def test_twelve_loop_copies_have_twelve_factorial_isomorphisms():
    sig = parse_signature("object X\nmorphism a : X -> X\nmorphism b : X -> X")
    loop = compile_term(parse_term("tr[X](a ; b)", sig), sig)
    n = genutil.disjoint_union(*[loop] * 12)
    m = genutil.permuted_copy(n, random.Random(12))
    assert iso_count_semantic(n, m) == math.factorial(12) == iso_count(n, m)


def test_a_200_box_cycle_has_200_automorphisms():
    sig = parse_signature("object X\nmorphism a : X -> X")
    a = sig.morphism("a")
    k = 200
    cycle = Diagram((X,) * k, (a,) * k, tuple((i,) for i in range(k)),
                    tuple(((i + 1) % k,) for i in range(k)))
    assert iso_count_semantic(cycle, cycle) == 200 == iso_count(cycle, cycle)


def test_a_daggered_label_does_not_match_its_base():
    sig = parse_signature("object X\nmorphism a : X -> X")
    plain = compile_term(parse_term("tr[X](a)", sig), sig)
    daggered = compile_term(parse_term("tr[X](dagger(a))", sig), sig)
    assert daggered.box_labels[0] == plain.box_labels[0].dagger()
    assert iso_count_semantic(daggered, plain) == 0 == iso_count_semantic(plain, daggered)
    assert _polynomial_count(daggered, plain) == 0
    assert iso_count_semantic(daggered, daggered) == 1


def test_a_daggered_label_the_reference_lacks_is_not_evaluated(monkeypatch):
    # In the quotient that label's matrix is zero; the count is 0 at once.
    sig = parse_signature("object X\nmorphism a : X -> X")
    plain = compile_term(parse_term("tr[X](a ; a)", sig), sig)
    daggered = compile_term(parse_term("tr[X](a ; dagger(a))", sig), sig)
    monkeypatch.setattr(semantics, "denote", None)
    assert iso_count_semantic(daggered, plain) == 0


def test_semantic_count_requires_simple_diagrams():
    loop = Diagram((), (), (), (), ((A, 1),))
    with pytest.raises(InterpretationError):
        iso_count_semantic(loop, loop)
    with pytest.raises(InterpretationError):
        m_interpretation(loop)


def test_m_interpretation_merges_parallel_scalar_boxes():
    sig = genutil.gen_signature()
    d = compile_term(parse_term("s ; s", sig), sig)
    interp = m_interpretation(d)
    s = d.box_labels[0]
    assert interp.matrix[s].entries == {(): x(0) + x(1)}
    # the value is (x0 + x1)^2 and the square-free coefficient is 2
    assert iso_count_semantic(d, d) == 2


def _quotient_image(p: ConjPolynomial) -> dict[int, int]:
    """``p`` modulo conjugate variables and squares, monomials as bitmasks."""
    return {sum(1 << box for (box, _), _ in mono.powers): c
            for mono, c in p.terms()
            if all(not conj and k == 1 for (_, conj), k in mono.powers)}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_m_interpretation_is_a_valid_interpretation(seed):
    m = genutil.random_simple_diagram(random.Random(seed), genutil.gen_signature(),
                                      max_boxes=6)
    m_interpretation(m).check()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_the_multilinear_interpretation_is_the_quotient_image(seed):
    m = genutil.random_simple_diagram(random.Random(seed), genutil.gen_signature(),
                                      max_boxes=6)
    full, quotient = m_interpretation(m), m_interpretation(m, MultilinearRing())
    assert quotient.space == full.space
    assert quotient.matrix.keys() <= full.matrix.keys()
    for f, t in full.matrix.items():
        image = {idx: _quotient_image(v) for idx, v in t.entries.items()}
        image = {idx: v for idx, v in image.items() if v}
        q = quotient.matrix.get(f)  # a zero matrix is left out
        assert (q.entries if q else {}) == image
        assert not q or (q.cod_dims, q.dom_dims) == (t.cod_dims, t.dom_dims)


def test_trivial_cycles_multiply_by_the_dimension():
    sig = parse_signature("object A\nmorphism h : A -> A")
    d = compile_term(parse_term("tr[A](id[A]) ; tr[A](id[A])", sig), sig)
    for dim in (0, 1, 2, 5):
        interp = random_interpretation(sig, {A: dim}, gauss, seed=1)
        assert denote(d, interp) == GaussianInt(dim * dim, 0)
        assert denote_naive(d, interp) == GaussianInt(dim * dim, 0)
        assert denote_sweep(d, interp) == GaussianInt(dim * dim, 0)
    empty = Diagram((), (), (), ())
    interp = random_interpretation(sig, {A: 3}, gauss, seed=1)
    assert denote(empty, interp) == GaussianInt(1, 0)
    assert denote_sweep(empty, interp) == GaussianInt(1, 0)


def test_denote_handles_wires_looping_a_single_box():
    sig = parse_signature("object A\nmorphism h : A -> A")
    d = compile_term(parse_term("tr[A](h)", sig), sig)
    interp = random_interpretation(sig, {A: 3}, gauss, seed=9)
    h = interp.matrix[int_translate(sig)[0].morphism("h")]
    expected = gauss.zero
    for i in range(3):
        expected = gauss.add(expected, h.entries[(i, i)])
    assert denote(d, interp) == expected == denote_naive(d, interp)
    assert denote_sweep(d, interp) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3))
def test_denote_agrees_with_the_naive_sum(seed, dim):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig, max_boxes=3, max_wires=6)
    interp = random_interpretation(sig, dim, gauss, seed=seed)
    assert denote(d, interp) == denote_naive(d, interp)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2), st.integers(0, 2))
def test_sweep_agrees_with_the_naive_sum_and_the_contraction(seed, dim_a, dim_b,
                                                             loops_a, loops_b):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig, max_boxes=5, max_wires=7)
    loops = tuple((a, k) for a, k in ((A, loops_a), (B, loops_b)) if k)
    d = Diagram(d.wire_labels, d.box_labels, d.box_inputs, d.box_outputs, loops)
    dims = {A: dim_a, B: dim_b}
    interp = random_interpretation(sig, dims, gauss, seed=seed)
    assert denote_sweep(d, interp) == denote_naive(d, interp) == denote(d, interp)
    floats = random_interpretation(sig, dims, ComplexFloatRing(), seed=seed)
    expected = complex(denote_naive(d, floats))
    assert complex(denote_sweep(d, floats)) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def _self_loop_boxes(sig):
    """``h`` with its output fed back to its input, beside ``g`` with both."""
    h, g = sig.morphism("h"), sig.morphism("g")
    return Diagram((A, B, A), (h, g), ((0,), (2, 1)), ((0,), (1, 2)))


def _random_closed_diagram(seed, loops_a, loops_b, self_loops):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig, max_boxes=4, max_wires=5)
    if self_loops:
        d = genutil.disjoint_union(d, _self_loop_boxes(sig))
    loops = tuple((a, k) for a, k in ((A, loops_a), (B, loops_b)) if k)
    return sig, Diagram(d.wire_labels, d.box_labels, d.box_inputs, d.box_outputs, loops)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2), st.integers(0, 2), st.booleans())
def test_one_plan_evaluates_every_interpretation(seed, dim_a, dim_b, loops_a,
                                                 loops_b, self_loops):
    sig, d = _random_closed_diagram(seed, loops_a, loops_b, self_loops)
    dims = {A: dim_a, B: dim_b}
    plan = semantics.Contraction(d, dims)
    for k in range(3):
        interp = random_interpretation(sig, dims, gauss, seed=seed + k)
        assert plan.run(interp) == denote_naive(d, interp) == denote_sweep(d, interp)
        floats = random_interpretation(sig, dims, ComplexFloatRing(), seed=seed + k)
        expected = complex(denote_naive(d, floats))
        for value in (plan.run(floats), denote_sweep(d, floats)):
            assert complex(value) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_a_plan_is_right_at_other_dimensions(seed, plan_a, plan_b, dim_a, dim_b,
                                             self_loops):
    # Only the cost of the order depends on the dimensions; the index
    # maps depend on the wiring alone.
    sig, d = _random_closed_diagram(seed, 1, 0, self_loops)
    plan = semantics.Contraction(d, {A: plan_a, B: plan_b})
    interp = random_interpretation(sig, {A: dim_a, B: dim_b}, gauss, seed=seed)
    assert plan.run(interp) == denote_naive(d, interp)


def test_find_witness_plans_each_diagram_once(monkeypatch):
    built = []

    class Counting(semantics.Contraction):
        def __init__(self, d, space):
            built.append(d)
            super().__init__(d, space)

    monkeypatch.setattr(semantics, "Contraction", Counting)
    sig = parse_signature("object X\nmorphism a : X -> X\nmorphism b : X -> X")
    word = "aababbb"  # its reverse is not a rotation of it
    n, m = (compile_term(parse_term("tr[X](" + " ; ".join(w) + ")", sig), sig)
            for w in (word, word[::-1]))
    # A word and its reverse have equal traces on 2x2 matrices, so every
    # one of the 100 trials runs.
    assert find_witness(n, m, 2, gauss, trials=100) is None
    assert built == [n, m]


def test_one_plan_per_diagram_serves_every_dimension(monkeypatch):
    built = []

    class Counting(semantics.Contraction):
        def __init__(self, d, space):
            built.append(d)
            super().__init__(d, space)

    monkeypatch.setattr(semantics, "Contraction", Counting)
    monkeypatch.setattr(semantics, "ESCALATION", (2,))
    sig = parse_signature("object X\nmorphism a : X -> X\nmorphism b : X -> X")
    word = "aababbb"
    n, m = (compile_term(parse_term("tr[X](" + " ; ".join(w) + ")", sig), sig)
            for w in (word, word[::-1]))
    notes = []
    w = find_witness(n, m, None, gauss, on_miss=notes.append)
    # Dimension 2 misses; the construction, at X = 7 wires, separates.
    assert notes == ["no witness at dimensions [2] after 2 trials"]
    assert w.construction and w.interpretation.space == {X: 7}
    assert built == [n, m]


def _matmul(p, q, dim):
    return {(i, k): sum((p[(i, j)] * q[(j, k)] for j in range(dim)), gauss.zero)
            for i in range(dim) for k in range(dim)}


def test_sweep_value_of_a_long_trace_word_is_the_matrix_trace():
    # 3^60 index assignments: only an evaluator that sums wires out as it
    # goes can compute this.  ``a ; b`` is the matrix product B.A.
    sig = parse_signature("object X\nmorphism a : X -> X\nmorphism b : X -> X")
    rng = random.Random(60)
    word = [rng.choice("ab") for _ in range(60)]
    d = compile_term(parse_term("tr[X](" + " ; ".join(word) + ")", sig), sig)
    interp = random_interpretation(sig, {X: 3}, gauss, seed=60)
    matrices = {name: interp.matrix[sig.morphism(name)].entries for name in "ab"}
    product = {(i, k): GaussianInt(int(i == k), 0) for i in range(3) for k in range(3)}
    for letter in word:
        product = _matmul(matrices[letter], product, 3)
    assert denote_sweep(d, interp) == sum((product[(i, i)] for i in range(3)), gauss.zero)


def test_witness_recheck_never_runs_the_naive_sum(tmp_path, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("denote_naive called")

    monkeypatch.setattr(semantics, "denote_naive", forbidden)
    word = "aababbabbbaaab"  # its reverse is not a rotation of it
    (tmp_path / "sig.txt").write_text(
        "object X\nmorphism a : X -> X\nmorphism b : X -> X\n")
    (tmp_path / "a.term").write_text("tr[X](" + " ; ".join(word) + ")\n")
    (tmp_path / "b.term").write_text("tr[X](" + " ; ".join(word[::-1]) + ")\n")
    code = cli.main(["check", "--sig", str(tmp_path / "sig.txt"),
                     str(tmp_path / "a.term"), str(tmp_path / "b.term")])
    assert code == 1
    assert "witness found at dimensions [3]" in capsys.readouterr().out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_mirror_denotes_the_conjugate(seed):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig)
    interp = random_interpretation(sig, rng.randint(1, 3), gauss, seed=seed)
    assert denote(mirror(d), interp) == denote(d, interp).conjugate()


def test_random_interpretation_is_seed_deterministic():
    sig = genutil.gen_signature()
    a = random_interpretation(sig, {A: 2, B: 3}, gauss, seed=11)
    b = random_interpretation(sig, {A: 2, B: 3}, gauss, seed=11)
    c = random_interpretation(sig, {A: 2, B: 3}, gauss, seed=12)
    f = sig.morphism("f")
    assert a.matrix[f].entries == b.matrix[f].entries
    assert a.matrix[f].entries != c.matrix[f].entries
    a.check()
    with pytest.raises(InterpretationError):
        random_interpretation(sig, {A: 2}, gauss, seed=0)  # B missing
    starred = genutil.starred_signature()
    with pytest.raises(InterpretationError):
        random_interpretation(starred, 2, gauss, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_random_interpretations_are_valid_by_construction(seed, dim_a, dim_b, floats):
    ring = ComplexFloatRing() if floats else gauss
    interp = random_interpretation(genutil.gen_signature(), {A: dim_a, B: dim_b},
                                   ring, seed=seed)
    interp.check()


def test_find_witness_separates_loop_counts():
    sig = parse_signature("object A")
    one = Diagram((), (), (), (), ((A, 1),))
    empty = Diagram((), (), (), ())
    w = find_witness(one, empty, {A: 2}, gauss, trials=5, seed=0)
    assert w is not None and w.trial == 0
    assert w.value_a == GaussianInt(2, 0)
    assert w.value_b == GaussianInt(1, 0)


def test_find_witness_gives_up_on_equal_diagrams(worked):
    sig, tN, tM = worked
    n, m = compile_term(tN, sig), compile_term(tM, sig)
    assert find_witness(n, m, 2, gauss, trials=5, seed=3) is None


def test_witness_over_floats_uses_relative_comparison(pare):
    sig, t1, t2 = pare
    d1, d2 = compile_term(t1, sig), compile_term(t2, sig)
    ring = ComplexFloatRing()
    w = find_witness(d1, d2, 3, ring, trials=50, seed=0)
    assert w is not None
    assert abs(complex(w.value_a) - complex(w.value_b)) > 1e-6


class _OverflowingRing(ComplexFloatRing):
    """Floats sampled with parts of +-1e300, whose products overflow."""

    def sample(self, rng, magnitude=1):
        return complex(rng.choice((-1e300, 1e300)), rng.choice((-1e300, 1e300)))


def test_non_finite_values_are_no_witness(pare):
    # Every value overflows to inf or nan.  Those compare unequal, but
    # they show no difference, so every trial is a miss and says why.
    sig, t1, t2 = pare
    d1, d2 = compile_term(t1, sig), compile_term(t2, sig)
    ring = _OverflowingRing()
    assert not ring.is_finite(complex(float("nan"), 0))
    assert not ring.is_finite(complex(0, float("-inf")))
    assert ring.is_finite(complex(1e300, -1e300))
    notes = []
    assert find_witness(d1, d2, None, ring, trials=3, on_miss=notes.append) is None
    assert notes == [
        f"no witness {where} after 3 trials, 3 of them with non-finite values"
        for where in ("at dimensions [2]", "at dimensions [3]",
                      "from the completeness construction")]


def test_long_gaussian_integers_format_and_parse_past_the_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python has no limit on int-to-str conversions")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for value in (GaussianInt(7 ** 2000, -(3 ** 1500)), GaussianInt(-(10 ** 700), 0),
                      GaussianInt(12, -5)):
            text = gauss.format(value)
            assert gauss.parse(text) == value
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == "12-5i"
    assert gauss.format(GaussianInt(-(10 ** 700), 0)) == "-1" + "0" * 700 + "+0i"


def test_interpretation_text_round_trip():
    sig = parse_signature("object A\nobject B\nmorphism f : B -> A x A")
    interp = random_interpretation(sig, {A: 2, B: 2}, gauss, seed=4)
    text = interpretation_to_text(interp)
    assert "dim A = 2" in text and "dim B = 2" in text
    again = parse_interpretation(text, sig, gauss)
    assert again.space == interp.space
    f = sig.morphism("f")
    assert again.matrix[f].entries == interp.matrix[f].entries
    assert again.matrix[f.dagger()].entries == interp.matrix[f.dagger()].entries


def test_interpretation_text_round_trip_float():
    sig = parse_signature("object A\nmorphism h : A -> A")
    ring = ComplexFloatRing()
    interp = random_interpretation(sig, {A: 3}, ring, seed=8)
    again = parse_interpretation(interpretation_to_text(interp), sig, ring)
    h = sig.morphism("h")
    assert again.matrix[h].entries == interp.matrix[h].entries


def test_a_zero_matrix_writes_one_zero_entry():
    sig = parse_signature("object A\nmorphism h : A -> A\nmorphism s : I -> I")
    h, s = sig.morphism("h"), sig.morphism("s")
    matrix = {f: Tensor((2,) * len(f.cod), (2,) * len(f.dom), {})
              for f in (h, h.dagger(), s, s.dagger())}
    text = interpretation_to_text(Interpretation(gauss, {A: 2}, matrix))
    assert text == ("dim A = 2\nh[0|0] = 0+0i\nh\u2020[0|0] = 0+0i\n"
                    "s[|] = 0+0i\ns\u2020[|] = 0+0i\n")
    again = parse_interpretation(text, sig, gauss)
    assert set(again.matrix) == set(matrix)
    assert all(again.matrix[f].equal(t, gauss) for f, t in matrix.items())


def test_witness_files_replay_to_the_same_values(pare):
    sig, t1, t2 = pare
    d1, d2 = compile_term(t1, sig), compile_term(t2, sig)
    w = find_witness(d1, d2, 3, gauss, trials=100, seed=0)
    assert w is not None
    text = interpretation_to_text(w.interpretation)
    replayed = parse_interpretation(text, int_translate(sig)[0], gauss)
    assert denote(d1, replayed) == w.value_a
    assert denote(d2, replayed) == w.value_b


def test_parse_interpretation_errors():
    sig = parse_signature("object A\nmorphism h : A -> A")
    with pytest.raises(Exception):
        parse_interpretation("h[0|0] = 1+0i", sig, gauss)  # no dim line
    from daggereq import ParseError
    with pytest.raises(ParseError):
        parse_interpretation("dim A = x", sig, gauss)
    with pytest.raises(ParseError):
        parse_interpretation("dim A = 2\nq[0|0] = 1+0i", sig, gauss)
    with pytest.raises(ParseError):
        parse_interpretation("dim A = 2\nh[0;0] = 1+0i", sig, gauss)
    with pytest.raises(ParseError):
        parse_interpretation("dim A = 2\nh[0|0] = banana", sig, gauss)
