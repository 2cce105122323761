import random

import pytest
from hypothesis import given, settings, strategies as st

from daggereq import (
    DaggereqError,
    Diagram,
    DiagramError,
    ObjectVar,
    ParseError,
    Sort,
    TypeCheckError,
    close_pair,
    close_term,
    compile_closed,
    compile_term,
    declare_morphism,
    decide_equal,
    diagram_to_text,
    export_dot,
    find_isos,
    iso_count,
    iso_count_semantic,
    mirror,
    parse_diagram,
    parse_signature,
    parse_term,
)
from daggereq import diagram, signature
from daggereq.signature import int_translate

import genutil

A, B, X = ObjectVar("A"), ObjectVar("B"), ObjectVar("X")


def test_compile_worked_example_golden(worked):
    sig, tN, tM = worked
    n = compile_term(tN, sig)
    m = compile_term(tM, sig)
    assert [f.display_name for f in n.box_labels] == ["f", "f†", "g"]
    assert n.wire_labels == (A, A, B, B, A)
    assert n.box_inputs == ((3,), (0, 1), (4, 2))
    assert n.box_outputs == ((0, 1), (2,), (3, 4))
    assert n.trivial_cycles == ()
    assert [f.display_name for f in m.box_labels] == ["g", "f", "f†"]
    assert m.wire_labels == (B, A, A, A, B)
    assert m.box_inputs == ((1, 4), (0,), (2, 3))
    assert m.box_outputs == ((0, 1), (2, 3), (4,))
    n.validate()
    m.validate()


def test_worked_example_has_exactly_one_isomorphism(worked):
    sig, tN, tM = worked
    n, m = compile_term(tN, sig), compile_term(tM, sig)
    isos = find_isos(n, m)
    assert len(isos) == 1
    assert isos[0].box_map == (1, 2, 0)
    assert isos[0].wire_map == (2, 3, 4, 0, 1)
    assert isos[0].verify(n, m)
    # independent oracle agrees
    assert genutil.brute_force_isos(n, m) == [((1, 2, 0), (2, 3, 4, 0, 1))]


def test_compile_requires_a_closed_term():
    sig = parse_signature("object A\nmorphism h : A -> A")
    with pytest.raises(TypeCheckError):
        compile_term(parse_term("h", sig), sig)


def test_trace_of_identity_is_a_trivial_cycle():
    sig = parse_signature("object A\nmorphism h : A -> A")
    d = compile_term(parse_term("tr[A](id[A])", sig), sig)
    assert d == Diagram((), (), (), (), ((A, 1),))
    d2 = compile_term(parse_term("tr[A](id[A]) ; tr[A](id[A])", sig), sig)
    assert d2.trivial_cycles == ((A, 2),)
    d3 = compile_term(parse_term("tr[A x A](sym[A,A])", sig), sig)
    assert d3.trivial_cycles == ((A, 1),)


def test_zig_zag_compiles_away():
    sig = parse_signature("object A\nmorphism w : I -> A x A")
    circle = compile_term(parse_term("eta[A] ; eps[A*]", sig), sig)
    assert circle == Diagram((), (), (), (), ((A, 1),))


def test_name_of_a_morphism_equals_its_trace():
    # the "name" eta;(id x f) bends f's input around; pairing the name
    # with itself is the same diagram as tracing f ; dagger(f)
    sig = parse_signature("object A\nobject B\nmorphism f : A -> B")
    name = "eta[A] ; (id[A*] x f)"
    looped = parse_term(f"{name} ; dagger({name})", sig)
    traced = parse_term("tr[A](f ; dagger(f))", sig)
    res = decide_equal(looped, traced, sig)
    assert res.equal
    d = compile_term(looped, sig)
    assert d.n_boxes == 2 and d.n_wires == 2 and d.is_simple


def test_compact_closed_boxes_route_ports_through_the_translation():
    sig = parse_signature("""\
object A
object B
morphism p : I -> A* x B
morphism q : A* x B -> I
""")
    # p : I -> A* x B becomes p' : A -> B; q likewise gains an output
    d = compile_term(parse_term("p ; q", sig), sig)
    d.validate()
    assert d.n_boxes == 2 and d.n_wires == 2
    sig_t, _ = int_translate(sig)
    assert d.box_labels == (sig_t.morphism("p"), sig_t.morphism("q"))
    # the A wire runs from q (which now produces A) to p (which consumes it)
    labels = {d.wire_labels[w].name for w in range(2)}
    assert labels == {"A", "B"}


def test_mirror_is_an_involution_preserving_automorphisms():
    sig = genutil.gen_signature()
    rng = random.Random(7)
    for _ in range(25):
        d = genutil.random_simple_diagram(rng, sig)
        md = mirror(d)
        md.validate()
        assert mirror(md) == d
        assert iso_count(md, md) == iso_count(d, d)


def test_dagger_of_a_term_compiles_to_the_mirror_diagram(worked):
    from daggereq.terms import Dagger
    sig, tN, _ = worked
    d = compile_term(tN, sig)
    dd = compile_term(Dagger(tN), sig)
    assert iso_count(dd, mirror(d)) == 1
    assert iso_count(dd, d) == 0  # box labels flip: g became g-dagger


def test_scalar_boxes_and_their_automorphisms():
    sig = genutil.gen_signature()
    d = compile_term(parse_term("s ; s", sig), sig)
    assert d.n_boxes == 2 and d.n_wires == 0
    assert iso_count(d, d) == 2
    assert [iso.box_map for iso in find_isos(d, d)] == [(0, 1), (1, 0)]


def test_validate_catches_broken_diagrams():
    sig = parse_signature("object A\nmorphism h : A -> A")
    h = int_translate(sig)[0].morphism("h")
    Diagram((A,), (h,), ((0,),), ((0,),)).validate()
    with pytest.raises(DiagramError):
        Diagram((A,), (h,), ((0,),), ((),)).validate()  # arity mismatch
    with pytest.raises(DiagramError):
        Diagram((A, A), (h,), ((0,),), ((0,),)).validate()  # unused wire
    with pytest.raises(DiagramError):
        Diagram((B,), (h,), ((0,),), ((0,),)).validate()  # label mismatch
    with pytest.raises(DiagramError):
        Diagram((), (), (), (), ((A, 0),)).validate()  # zero count
    with pytest.raises(DiagramError):
        Diagram((), (), (), (), ((B, 1), (A, 1))).validate()  # unsorted


def test_relabel_permutes_everything_consistently():
    sig = genutil.gen_signature()
    rng = random.Random(3)
    d = genutil.random_simple_diagram(rng, sig)
    copy = genutil.permuted_copy(d, rng)
    copy.validate()
    assert sorted(a.name for a in copy.wire_labels) == sorted(
        a.name for a in d.wire_labels)
    assert iso_count(d, copy) >= 1
    sig_h = parse_signature("object A\nmorphism h : A -> A")
    h = int_translate(sig_h)[0].morphism("h")
    loops = Diagram((A, A), (h, h), ((0,), (1,)), ((0,), (1,)))
    with pytest.raises(DiagramError):
        loops.relabel((0, 0), (0, 1))
    with pytest.raises(DiagramError):
        loops.relabel((0, 1), (1, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_find_isos_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    n = genutil.random_simple_diagram(rng, sig)
    if rng.random() < 0.5:
        m = genutil.permuted_copy(n, rng)
    else:
        m = genutil.random_simple_diagram(rng, sig)
    got = [(iso.box_map, iso.wire_map) for iso in find_isos(n, m)]
    assert got == sorted(genutil.brute_force_isos(n, m))
    assert all(iso.verify(n, m) for iso in find_isos(n, m))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_isomorphism_is_an_equivalence(seed):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig)
    c1 = genutil.permuted_copy(d, rng)
    c2 = genutil.permuted_copy(c1, rng)
    assert iso_count(d, d) >= 1
    assert iso_count(d, c1) == iso_count(c1, d) == iso_count(d, c2)


def test_decide_equal_on_the_worked_example(worked):
    sig, tN, tM = worked
    res = decide_equal(tN, tM, sig)
    assert res.equal and res.isomorphism_count == 1
    assert res.isomorphism.box_map == (1, 2, 0)
    assert res.signature.kind == "traced-monoidal"


def test_decide_equal_closes_open_terms_consistently():
    sig = parse_signature("object A\nobject B\nmorphism f : B -> A x A\n"
                          "morphism h : A -> A")
    t1 = parse_term("f ; (h x id[A])", sig)
    t2 = parse_term("f ; (h x id[A]) ; id[A x A]", sig)
    res = decide_equal(t1, t2, sig)
    assert res.equal
    t3 = parse_term("f ; (id[A] x h)", sig)
    assert not decide_equal(t1, t3, sig).equal
    with pytest.raises(TypeCheckError):
        decide_equal(parse_term("f", sig), parse_term("h", sig), sig)


def outcome(compile_pair, t1, t2, sig):
    """The two closed diagrams as text, or the error's type and message."""
    try:
        return [diagram_to_text(d) for d in compile_pair(t1, t2, sig)]
    except DaggereqError as exc:
        return type(exc).__name__, str(exc)


def by_closing_terms(t1, t2, sig):
    t1c, t2c, sig_c = close_pair(t1, t2, sig)
    return compile_term(t1c, sig_c), compile_term(t2c, sig_c)


def by_deciding(t1, t2, sig):
    res = decide_equal(t1, t2, sig)
    return res.diagram_a, res.diagram_b


def by_closing_one_term(t1, _, sig):
    closed, sig_c = close_term(t1, sig)
    return [compile_term(closed, sig_c)]


def by_exporting(t1, _, sig):
    return compile_closed([t1], sig)[1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans(), st.booleans())
def test_closing_diagrams_agrees_with_closing_terms(seed, starred, taken):
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    if taken:  # the closure must take the next free pair of names
        sig = declare_morphism(sig, "close_in", Sort.unit(), Sort.unit())
    steps = rng.randint(0, 12)
    roll = rng.random()
    if roll < 0.15:
        t1 = genutil.random_term(rng, sig, steps)
        t2 = genutil.random_untyped_term(rng, sig, steps)
    elif roll < 0.3:
        t1 = genutil.random_untyped_term(rng, sig, steps)
        t2 = genutil.random_term(rng, sig, steps)
    else:
        t1 = genutil.random_term(rng, sig, steps)
        if rng.random() < 0.3:
            t1, sig = close_term(t1, sig)
        if rng.random() < 0.7:
            t2 = genutil.rebracket(t1, rng, sig)
        else:
            t2 = genutil.random_term(rng, sig, steps)
    expected = outcome(by_closing_terms, t1, t2, sig)
    assert outcome(by_deciding, t1, t2, sig) == expected
    assert (outcome(by_exporting, t1, t2, sig)
            == outcome(by_closing_one_term, t1, t2, sig))


def test_closure_variables_are_checked_like_declared_ones():
    # A traced signature has no duals, so it cannot close a starred
    # type; close_in is checked first, and it meets A* before B*.
    sig = parse_signature("kind traced-monoidal\nobject A\nobject B\n")
    t = parse_term("sym[A*,B*]", sig)
    expected = ("SignatureError", "starred object A* in traced monoidal signature")
    assert outcome(by_closing_terms, t, t, sig) == expected
    assert outcome(by_deciding, t, t, sig) == expected
    assert outcome(by_exporting, t, t, sig) == expected


def test_a_check_translates_only_the_generators_its_terms_use(monkeypatch):
    sig = parse_signature("object A\nobject B\n" + "".join(
        f"morphism m{i} : A* x B -> A\n" for i in range(40)))
    translated = []
    translate = signature._translate_var

    def counting_translate(f):
        translated.append(f.display_name)
        return translate(f)

    monkeypatch.setattr(signature, "_translate_var", counting_translate)
    t1 = parse_term("m3 ; m7†", sig)
    t2 = parse_term("m3 ; m7† ; id[A* x B]", sig)
    assert decide_equal(t1, t2, sig).equal
    assert sorted(translated) == ["close_in", "close_out", "m3", "m7"]


def test_decide_equal_distinguishes_trivial_cycle_counts():
    sig = parse_signature("object A\nmorphism h : A -> A")
    one = parse_term("tr[A](id[A])", sig)
    two = parse_term("tr[A](id[A]) ; tr[A](id[A])", sig)
    assert not decide_equal(one, two, sig).equal
    assert decide_equal(two, parse_term("tr[A](id[A] ; id[A]) ; tr[A](id[A])", sig),
                        sig).equal


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_rebracketing_compiles_to_the_identical_diagram(seed, starred):
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    from daggereq import close_term
    t = genutil.random_term(rng, sig)
    closed, sig2 = close_term(t, sig)
    other = genutil.rebracket(closed, rng, sig2)
    assert compile_term(closed, sig2) == compile_term(other, sig2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_compiled_closed_terms_are_valid_diagrams(seed, starred):
    # compile_term does not run validate on its result.
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    closed, sig2 = close_term(genutil.random_term(rng, sig, steps=rng.randint(0, 12)), sig)
    compile_term(closed, sig2).validate()


def test_export_dot_golden(worked):
    sig, tN, _ = worked
    d = compile_term(tN, sig)
    dot = export_dot(d)
    assert dot.startswith("digraph diagram {\n  rankdir=LR;\n")
    assert '  b0 [label="f", shape=box];' in dot
    assert '  b1 [label="f†", shape=box];' in dot
    assert '  b2 -> b0 [label="w3: B"];' in dot
    assert dot.endswith("}\n")
    assert export_dot(Diagram((), (), (), ())) == "digraph diagram {\n}\n"
    loop = Diagram((), (), (), (), ((A, 2),))
    assert "trivial cycle A x2" in export_dot(loop)


def test_diagram_text_round_trip(worked):
    sig, tN, _ = worked
    d = compile_term(tN, sig)
    sig_t, _ = int_translate(sig)
    text = diagram_to_text(d)
    assert "box b0 : f" in text
    assert "wire w0 : A from b0.out1 to b1.in1" in text
    assert parse_diagram(text, sig_t) == d
    d2 = Diagram((), (), (), (), ((A, 3),))
    sig_a = parse_signature("object A")
    assert parse_diagram(diagram_to_text(d2), sig_a) == d2
    assert diagram_to_text(Diagram((), (), (), ())) == ""


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_diagram_text_round_trip_random(seed):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig)
    assert parse_diagram(diagram_to_text(d), sig) == d


def test_parse_diagram_rejects_malformed_input():
    sig = genutil.gen_signature()
    with pytest.raises(ParseError):
        parse_diagram("box b1 : h", sig)  # ids must start at b0
    with pytest.raises(ParseError):
        parse_diagram("box b0 : nope", sig)
    with pytest.raises(ParseError):
        parse_diagram("box b0 : h\nwire w0 : A from b0.out1 to b0.out1", sig)
    with pytest.raises(ParseError):
        parse_diagram("box b0 : h\nwire w0 : A from b0.out1 to b9.in1", sig)
    with pytest.raises(ParseError):
        # both wires claim the same ports
        parse_diagram("box b0 : h\n"
                      "wire w0 : A from b0.out1 to b0.in1\n"
                      "wire w1 : A from b0.out1 to b0.in1", sig)
    with pytest.raises(DiagramError):
        # parses, but h is missing its wires entirely
        parse_diagram("box b0 : h", sig)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_counts_on_disjoint_unions_of_copies(seed):
    rng = random.Random(seed)
    sig = genutil.gen_signature()
    d = genutil.random_simple_diagram(rng, sig, max_boxes=3, max_wires=5)
    other = genutil.random_simple_diagram(rng, sig, max_boxes=3, max_wires=5)
    if rng.random() < 0.5:
        replaced = other
    else:
        replaced = genutil.random_simple_diagram(rng, sig, max_boxes=3, max_wires=5)
    k = rng.randint(1, 3)
    n = genutil.disjoint_union(*[d] * k, other)
    m = genutil.permuted_copy(genutil.disjoint_union(replaced, *[d] * k), rng)
    isos = find_isos(n, m)
    if n.n_boxes <= 7:
        assert ([(iso.box_map, iso.wire_map) for iso in isos]
                == sorted(genutil.brute_force_isos(n, m)))
    assert iso_count(n, m) == len(isos) == iso_count_semantic(n, m)


def _loops(*words: str) -> str:
    return " ; ".join(f"tr[X]({' ; '.join(word)})" for word in words)


@pytest.mark.parametrize("t1, t2, count", [
    (_loops(*["ab"] * 12), _loops(*["ba"] * 12), 479001600),
    (_loops("a" * 200), _loops("a" * 200), 200),
    (_loops(*["ab"] * 6, *["aa"] * 3, *["bb"] * 3), _loops(*["ab"] * 12), 0),
    (_loops("ab" * 100), _loops("ba" * 100), 100),
], ids=["12-copies", "200-box-cycle", "unequal-12-copies", "200-box-word-cycle"])
def test_decide_equal_counts_without_listing_isomorphisms(pare, t1, t2, count):
    sig = pare[0]
    res = decide_equal(parse_term(t1, sig), parse_term(t2, sig), sig)
    assert res.equal == (count > 0)
    assert res.isomorphism_count == count
    if count:
        assert res.isomorphism.verify(res.diagram_a, res.diagram_b)
    else:
        assert res.isomorphism is None


# -- orbit-pruned canonical roots ----------------------------------------

def _symmetric_part(rng: random.Random, max_boxes: int):
    """A word cycle, a mixed-label necklace, a torus or a random diagram,
    with at most ``max_boxes`` boxes."""
    sig = genutil.necklace_signature()
    a, b, c, t = sig.base_morphisms
    kind = rng.choice(["word", "necklace", "torus", "random"])
    if kind == "word":
        period = [rng.choice([a, b, a.dagger()]) for _ in range(rng.randint(1, 3))]
        return genutil.word_cycle(period * rng.randint(1, max_boxes // len(period)))
    if kind == "necklace":
        return genutil.word_cycle([rng.choice([a, b, c, c.dagger()])
                                   for _ in range(rng.randint(1, max_boxes))])
    if kind == "torus":
        rows = rng.randint(1, max(1, max_boxes // 2))
        return genutil.torus(t, rows, rng.randint(1, max_boxes // rows))
    return genutil.random_simple_diagram(rng, genutil.gen_signature(),
                                         max_boxes=min(4, max_boxes))


def _rotations(word: list) -> int:
    return sum(word[r:] + word[:r] == word for r in range(len(word)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_orbit_pruned_classes_match_the_all_roots_scan(seed):
    rng = random.Random(seed)
    parts = [_symmetric_part(rng, 24) for _ in range(rng.randint(1, 3))]
    parts += parts[:rng.randint(0, len(parts))]
    d = genutil.permuted_copy(genutil.disjoint_union(*parts), rng)
    got = diagram._code_classes(d)
    want = genutil.code_classes_all_roots(d)
    assert list(got) == list(want)
    for code, comps in want.items():
        assert got[code] == [(walks[0], tuple(w[0] for w in walks))
                             for walks in comps]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_symmetric_components_count_their_rotations(seed):
    rng = random.Random(seed)
    a, b, c, t = genutil.necklace_signature().base_morphisms
    period = [rng.choice([a, b, c]) for _ in range(rng.randint(1, 4))]
    word = period * rng.randint(1, 30)
    d = genutil.word_cycle(word)
    assert iso_count(d, genutil.permuted_copy(d, rng)) == _rotations(word)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    grid = genutil.torus(t, rows, cols)
    assert iso_count(grid, genutil.permuted_copy(grid, rng)) == rows * cols


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_find_isos_on_symmetric_diagrams_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    n = _symmetric_part(rng, 7)
    if n.n_boxes <= 3 and rng.random() < 0.5:
        n = genutil.disjoint_union(n, n)
    m = genutil.permuted_copy(n, rng)
    isos = find_isos(n, m)
    assert ([(iso.box_map, iso.wire_map) for iso in isos]
            == sorted(genutil.brute_force_isos(n, m)))
    assert iso_count(n, m) == len(isos)


def test_a_1000_box_cycle_is_counted_in_a_few_walks(monkeypatch):
    a = genutil.necklace_signature().base_morphisms[0]
    d = genutil.word_cycle([a] * 1000)
    walks = []
    walk = diagram._walk
    monkeypatch.setattr(diagram, "_walk",
                        lambda *args: walks.append(args[2]) or walk(*args))
    assert iso_count(d, genutil.permuted_copy(d, random.Random(1))) == 1000
    assert len(walks) <= 6
