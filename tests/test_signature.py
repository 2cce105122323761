import pytest
from hypothesis import given, strategies as st

from daggereq import signature
from daggereq import (
    MorphismVar,
    ObjectVar,
    ParseError,
    Signature,
    SignatureError,
    SignedObject,
    Sort,
    declare_morphism,
    int_translate,
    morphism_line,
    parse_signature,
    signature_to_text,
)

A, B, C = ObjectVar("A"), ObjectVar("B"), ObjectVar("C")


def test_sort_printing():
    assert str(Sort.unit()) == "I"
    assert str(Sort.of(A)) == "A"
    assert str(Sort((SignedObject(A), SignedObject(B, True)))) == "A x B*"


def test_sort_tensor_and_iteration():
    s = Sort.of(A).tensor(Sort.of(B, C))
    assert len(s) == 3
    assert [sf.base for sf in s] == [A, B, C]
    assert Sort.unit().is_unit and not s.is_unit


def test_dagger_is_a_fixed_point_free_involution():
    f = MorphismVar("f", Sort.of(A), Sort.of(B))
    assert f.dagger() != f
    assert f.dagger().dagger() == f
    assert f.dagger().dom == f.cod and f.dagger().cod == f.dom
    assert f.dagger().display_name == "f†"
    assert f.undaggered() == f.dagger().undaggered() == f


def test_signature_lookup_and_morphism_pairs():
    sig = Signature("compact-closed", (A, B))
    sig = declare_morphism(sig, "f", Sort.of(A), Sort.of(B))
    assert sig.morphism("f").cod == Sort.of(B)
    assert sig.morphism("f†") == sig.morphism("f").dagger()
    assert [m.display_name for m in sig.morphisms] == ["f", "f†"]
    assert sig.has_object("A") and not sig.has_object("f")
    with pytest.raises(SignatureError):
        sig.morphism("nope")
    with pytest.raises(SignatureError):
        sig.object("nope")


def test_declarations_are_checked():
    sig = Signature("compact-closed", (A,))
    with pytest.raises(SignatureError):
        declare_morphism(sig, "f", Sort.of(B), Sort.of(A))  # unknown object
    with pytest.raises(SignatureError):
        declare_morphism(sig, "tr", Sort.of(A), Sort.of(A))  # reserved
    with pytest.raises(SignatureError):
        declare_morphism(sig, "A", Sort.of(A), Sort.of(A))  # clashes with object
    sig = declare_morphism(sig, "f", Sort.of(A), Sort.of(A))
    with pytest.raises(SignatureError):
        declare_morphism(sig, "f", Sort.of(A), Sort.of(A))
    with pytest.raises(SignatureError):
        Signature("traced-monoidal", (A,),
                  (MorphismVar("f", Sort((SignedObject(A, True),)), Sort.of(A)),))
    with pytest.raises(SignatureError):
        Signature("no-such-kind", (A,))


def test_signature_text_round_trip():
    text = """\
# a compact closed example
object A
object B
morphism f : A* x B -> I   # stars allowed
morphism g : I -> B x B
"""
    sig = parse_signature(text)
    assert sig.kind == "compact-closed"
    assert sig.morphism("f").dom == Sort((SignedObject(A, True), SignedObject(B)))
    assert sig.morphism("f").cod == Sort.unit()
    again = parse_signature(signature_to_text(sig))
    assert again == sig


def test_parse_signature_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_signature("object A\nmorphism f : A -> Bogus")
    assert "2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_signature("widget A")
    with pytest.raises(ParseError):
        parse_signature("object A\nmorphism f : A x -> A")
    with pytest.raises(ParseError):
        parse_signature("object A\nkind traced-monoidal")


def test_duplicate_morphism_error_names_its_line():
    text = "object A\nmorphism f : A -> A\nmorphism f : A -> A x A\nmorphism g : A -> A\n"
    with pytest.raises(ParseError, match=r"\A3: duplicate name 'f'\Z"):
        parse_signature(text)


def test_object_errors_name_their_line():
    with pytest.raises(ParseError, match=r"\A2: duplicate object 'A'\Z"):
        parse_signature("object A\nobject A\nmorphism f : A -> A\n")
    with pytest.raises(ParseError, match=r"\A1: object name 'tr' is reserved\Z"):
        parse_signature("object tr\n")


def test_parsing_validates_each_morphism_once(monkeypatch):
    calls = []
    check = signature._check_morphism

    def counting(f, *args):
        calls.append(f.name)
        check(f, *args)

    monkeypatch.setattr(signature, "_check_morphism", counting)
    parse_signature("object A\nmorphism f : A -> A\nmorphism g : A -> A x A\n")
    assert calls == ["f", "g"]
    calls.clear()
    Signature("traced-monoidal", (A,), (MorphismVar("f", Sort.of(A), Sort.of(A)),))
    assert calls == ["f"]


def test_traced_kind_rejects_stars():
    with pytest.raises(ParseError):
        parse_signature("kind traced-monoidal\nobject A\nmorphism f : A* -> A")


def test_int_translate_moves_stars_across_the_arrow():
    sig = parse_signature("""\
object A
object B
object C
object D
object E
morphism f : A* x B x C* -> D* x E
""")
    out, table = int_translate(sig)
    f = sig.morphism("f")
    assert morphism_line(out.morphism("f")) == "morphism f : B x D -> A x C x E"
    assert out.kind == "traced-monoidal"
    # original ports, in order: dom A*, B, C*; cod D*, E
    assert table.port(f, ("dom", 0)) == ("cod", 0)
    assert table.port(f, ("dom", 1)) == ("dom", 0)
    assert table.port(f, ("dom", 2)) == ("cod", 1)
    assert table.port(f, ("cod", 0)) == ("dom", 1)
    assert table.port(f, ("cod", 1)) == ("cod", 2)


def test_int_translate_commutes_with_dagger():
    sig = parse_signature("object A\nobject B\nmorphism f : A* x B -> B x B*")
    _, table = int_translate(sig)
    f = sig.morphism("f")
    assert table.variable(f.dagger()) == table.variable(f).dagger()
    # mirrored ports: a dom port of f-dagger is the matching cod port of f
    for i in range(len(f.cod)):
        side, k = table.port(f, ("cod", i))
        flipped = ("dom" if side == "cod" else "cod", k)
        assert table.port(f.dagger(), ("dom", i)) == flipped


def test_int_translate_port_table_is_a_typed_bijection():
    sig = parse_signature("""\
object A
object B
morphism f : A* x B x B* -> A x A* x B
""")
    out, table = int_translate(sig)
    for var in sig.morphisms:
        new = table.variable(var)
        ports = table.ports[var]
        original = [("dom", i) for i in range(len(var.dom))]
        original += [("cod", j) for j in range(len(var.cod))]
        assert sorted(ports) == sorted(original)
        images = sorted(ports[p] for p in original)
        expected = [("dom", i) for i in range(len(new.dom))]
        expected += [("cod", j) for j in range(len(new.cod))]
        assert images == sorted(expected)
        for p, q in ports.items():
            old = (var.dom if p[0] == "dom" else var.cod).factors[p[1]]
            got = (new.dom if q[0] == "dom" else new.cod).factors[q[1]]
            assert got.base == old.base
            assert not got.starred


def test_int_translate_is_identity_on_star_free_signatures():
    sig = parse_signature("object A\nmorphism h : A -> A")
    out, table = int_translate(sig)
    assert out.base_morphisms == sig.base_morphisms
    h = sig.morphism("h")
    assert table.variable(h) == h
    assert table.port(h, ("dom", 0)) == ("dom", 0)
    assert table.port(h, ("cod", 0)) == ("cod", 0)
    again, _ = int_translate(out)
    assert again == out


@st.composite
def sorts(draw):
    objs = [A, B, C]
    k = draw(st.integers(0, 3))
    return Sort(tuple(
        SignedObject(draw(st.sampled_from(objs)), draw(st.booleans()))
        for _ in range(k)))


@given(sorts(), sorts())
def test_int_translate_preserves_port_multisets(dom, cod):
    sig = Signature("compact-closed", (A, B, C))
    sig = declare_morphism(sig, "f", dom, cod)
    out, _ = int_translate(sig)
    new = out.morphism("f")
    old_bases = sorted(sf.base.name for sf in tuple(dom) + tuple(cod))
    new_bases = sorted(sf.base.name for sf in tuple(new.dom) + tuple(new.cod))
    assert old_bases == new_bases
    assert not new.dom.has_stars and not new.cod.has_stars
    # unstarred factors keep their relative order on their own side
    kept_dom = [sf for sf in dom if not sf.starred]
    assert list(new.dom.factors[: len(kept_dom)]) == kept_dom
    kept_cod = [sf for sf in cod if not sf.starred]
    assert list(new.cod.factors[len(new.cod) - len(kept_cod):]) == kept_cod


def test_morphism_hash_is_the_field_tuple_hash():
    f = MorphismVar("f", Sort.of(A, B), Sort((SignedObject(C, True),)))
    assert hash(f) == hash((f.name, f.dom, f.cod, f.daggered))
    g = f.dagger().dagger()
    assert g is not f
    assert g == f and hash(g) == hash(f)
    assert hash(f.dagger()) == hash(("f", f.cod, f.dom, True))
