"""The single explicit-stack walk over terms: typing, compiling and
printing agree with the recursive oracles in ``genutil``, reach any
depth, and ``decide_equal`` walks each term only twice."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from daggereq import (
    Compose,
    Dagger,
    Sort,
    TypeCheckError,
    Var,
    compile_term,
    decide_equal,
    parse_signature,
    parse_term,
    term_to_text,
    type_check,
)
from daggereq import terms
from daggereq.signature import ObjectVar

import genutil

CHAIN_SIG = parse_signature(
    "object A\nmorphism p : I -> A\nmorphism h : A -> A\nmorphism q : A -> I\n")
A = ObjectVar("A")


def sorts_or_error(check, t, sig):
    """The sorts ``check`` gives ``t``, or its type error's message."""
    try:
        return check(t, sig)
    except TypeCheckError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans(), st.booleans())
def test_the_walk_agrees_with_the_recursive_oracles(seed, starred, well_typed):
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    make = genutil.random_term if well_typed else genutil.random_untyped_term
    t = make(rng, sig, steps=rng.randint(0, 12))
    expected = sorts_or_error(genutil.type_check_recursive, t, sig)
    assert sorts_or_error(type_check, t, sig) == expected
    assert term_to_text(t) == genutil.term_to_text_recursive(t)
    # Compiling types each node in the same walk, so an ill-typed term
    # fails there with the type checker's first error.
    if isinstance(expected, str):
        with pytest.raises(TypeCheckError) as info:
            compile_term(t, sig)
        assert str(info.value) == expected


def test_a_100k_deep_composition_types_compiles_and_prints():
    t = Var("p")
    for _ in range(100_000):
        t = Compose(t, Var("h"))
    t = Compose(t, Var("q"))
    assert type_check(t, CHAIN_SIG) == (Sort.unit(), Sort.unit())
    d = compile_term(t, CHAIN_SIG)
    assert d.n_boxes == 100_002 and d.n_wires == 100_001
    assert term_to_text(t) == "p ; " + "h ; " * 100_000 + "q"


def test_a_10k_deep_dagger_nest_types_compiles_and_prints():
    t = Compose(Var("h"), Var("q"))
    for _ in range(10_001):
        t = Dagger(t)
    assert type_check(t, CHAIN_SIG) == (Sort.unit(), Sort.of(A))
    assert term_to_text(t) == "dagger(" * 10_001 + "h ; q" + ")" * 10_001
    # An odd nest flips the two boxes of its body once, and only those.
    closed = Compose(Compose(Compose(Var("p"), Var("q")), t),
                     Compose(Var("h"), Var("q")))
    assert compile_term(closed, CHAIN_SIG) == compile_term(
        parse_term("p ; q ; dagger(h ; q) ; h ; q", CHAIN_SIG), CHAIN_SIG)


def test_a_right_nested_composition_prints_with_brackets():
    t = Var("q")
    for _ in range(20_000):
        t = Compose(Var("h"), t)
    assert term_to_text(t) == "h ; (" * 19_999 + "h ; q" + ")" * 19_999


@pytest.mark.parametrize("closed", [True, False])
def test_decide_equal_walks_each_term_twice(monkeypatch, worked, closed):
    sig, t1, t2 = worked
    if not closed:  # open terms get a closing pair wrapped around them
        t1, t2 = t1.body, t2.body
    roots = []
    fold = terms._fold

    def counting_fold(t, rule):
        roots.append(t)
        return fold(t, rule)

    def unclosed(t):
        while t is not t1 and t is not t2:
            t = t.then if t.first == Var("close_in") else t.first
        return t

    monkeypatch.setattr(terms, "_fold", counting_fold)
    decide_equal(t1, t2, sig)
    assert Counter(id(unclosed(t)) for t in roots) == {id(t1): 2, id(t2): 2}
