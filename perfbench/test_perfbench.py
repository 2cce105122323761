"""Tests of the benchmark itself: python3 -m pytest perfbench

The known answers are checked against a brute-force isomorphism count on
small instances, over a reading of the generated text that shares no
code with daggereq.  A few small pairs also go through daggereq.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402


# -- an independent reading of the loop fragment ---------------------------

_TOKENS = re.compile(r"tr\[X\]\(|dagger\(|[ab]†?|[();x]")


def _read(text: str):
    """Read a term over a, b : X -> X built from ';', 'x', 'tr[X](...)'
    and 'dagger(...)'.  An open term is its path of labels; a closed one
    is its list of cycles."""
    tokens = _TOKENS.findall(text)
    pos = 0

    def expr():
        nonlocal pos
        parts, op = [atom()], None
        while pos < len(tokens) and tokens[pos] in (";", "x"):
            op = tokens[pos]
            pos += 1
            parts.append(atom())
        if op is None:
            return parts[0]
        if op == "x":
            return ("closed", [c for p in parts for c in p[1]])
        return ("path", [label for p in parts for label in p[1]])

    def atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            inner = expr()
            pos += 1
            return inner
        if tok == "tr[X](":
            kind, path = expr()
            pos += 1
            assert kind == "path"
            return ("closed", [path])
        if tok == "dagger(":
            kind, path = expr()
            pos += 1
            assert kind == "path"
            return ("path", [_flip(label) for label in reversed(path)])
        return ("path", [tok])

    kind, value = expr()
    assert kind == "closed" and pos == len(tokens)
    return value


def _flip(label: str) -> str:
    return label[:-1] if label.endswith("†") else label + "†"


def _brute_force_count(cycles_a, cycles_b) -> int:
    """Box bijections that keep labels and map each wire to a wire."""
    def boxes(cycles):
        labels, succ = [], []
        for cycle in cycles:
            base = len(labels)
            for i, label in enumerate(cycle):
                labels.append(label)
                succ.append(base + (i + 1) % len(cycle))
        return labels, succ

    la, sa = boxes(cycles_a)
    lb, sb = boxes(cycles_b)
    if len(la) != len(lb):
        return 0
    return sum(
        all(la[i] == lb[p[i]] and p[sa[i]] == sb[p[i]] for i in range(len(la)))
        for p in itertools.permutations(range(len(lb))))


def _small_pairs():
    rng = random.Random(7)
    for n in range(1, 7):
        yield gen._uniform_cycle(rng, n)
    for n in range(2, 7):
        for _ in range(4):
            yield gen._word_cycle(rng, n)
    for k in range(1, 4):
        yield gen._copies(rng, k)
    for _ in range(4):
        yield gen._reverse_pair(rng, 6)
        yield gen._shuffled_pair(rng, 6)


@pytest.mark.parametrize("pair", list(_small_pairs()))
def test_known_count_matches_brute_force(pair):
    text_a, text_b, expect = pair
    count = _brute_force_count(_read(text_a), _read(text_b))
    assert count == expect["count"]
    assert (count > 0) == expect["equal"]


def test_dagger_form_reads_back_as_the_word():
    word = list("aababb")
    assert _read(f"tr[X]({gen._dagger_form(word)})") == [word]


def test_word_cycle_count_uses_the_period():
    assert gen.word_cycle_count(list("abab")) == 2
    assert gen.word_cycle_count(list("aab")) == 1
    assert gen.word_cycle_count(list("aaaa")) == 4


# -- small_mixed: distinct labels, and a changed multiset when unequal -------

_NAMES = "|".join(name for name, _, _ in gen.MIXED_GENERATORS)
_LABEL = re.compile(rf"\b({_NAMES})(_alt)?\b")


def _labels(text: str) -> Counter:
    return Counter(m.group(0) for m in _LABEL.finditer(text))


def test_mixed_pairs_have_distinct_labels_and_the_stated_answer():
    rng = random.Random(3)
    for i in range(200):
        a, b, expect = gen._mixed_pair(rng, rng.randint(2, 5), equal=i % 2 == 0)
        labels_a = _labels(a)
        assert max(labels_a.values()) == 1
        assert (labels_a == _labels(b)) == expect["equal"]


# -- generation is a function of the seed -----------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_writes_identical_files(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "one")
    gen.generate(workload, 5, tmp_path / "two")
    gen.generate(workload, 6, tmp_path / "three")
    assert gen.digest(tmp_path / "one") == gen.digest(tmp_path / "two")
    assert gen.digest(tmp_path / "one") != gen.digest(tmp_path / "three")


# -- the harness against daggereq ---------------------------------------------

def test_timeout_is_not_mapped_to_exit_code_two():
    from daggereq.errors import DaggereqError

    assert not issubclass(harness.CheckTimeout, (OSError, DaggereqError))


def _write_checks(tmp_path, pairs, sig=gen.LOOP_SIG):
    (tmp_path / "sig.sig").write_text(sig)
    checks = []
    for i, (a, b, expect) in enumerate(pairs):
        (tmp_path / f"{i}a.term").write_text(f"use sig.sig\n{a}\n")
        (tmp_path / f"{i}b.term").write_text(f"use sig.sig\n{b}\n")
        checks.append({"a": f"{i}a.term", "b": f"{i}b.term", "seed": i, "expect": expect})
    return checks


def test_small_pairs_pass_the_known_answer_check(tmp_path, monkeypatch):
    from daggereq import cli

    monkeypatch.delenv("DAGGEREQ_SEED", raising=False)
    rng = random.Random(11)
    pairs = [gen._uniform_cycle(rng, 5), gen._word_cycle(rng, 12), gen._copies(rng, 3),
             gen._reverse_pair(rng, 7), gen._shuffled_pair(rng, 7)]
    for check in _write_checks(tmp_path, pairs):
        _, status, _ = harness.run_check(cli, tmp_path, check, limit=20.0)
        assert status == "ok"


def test_mixed_pairs_pass_the_known_answer_check(tmp_path, monkeypatch):
    from daggereq import cli

    monkeypatch.delenv("DAGGEREQ_SEED", raising=False)
    rng = random.Random(12)
    pairs = [gen._mixed_pair(rng, 4, equal=i % 2 == 0) for i in range(10)]
    pairs.append(gen._deep_pair(rng, 100))
    for check in _write_checks(tmp_path, pairs, sig=gen.mixed_signature()):
        _, status, _ = harness.run_check(cli, tmp_path, check, limit=20.0)
        assert status == "ok"


def test_a_wrong_answer_is_reported(tmp_path):
    from daggereq import cli

    rng = random.Random(13)
    text_a, text_b, expect = gen._word_cycle(rng, 10)
    [check] = _write_checks(tmp_path, [(text_a, text_b, dict(expect, count=expect["count"] + 1))])
    _, status, _ = harness.run_check(cli, tmp_path, check, limit=20.0)
    assert status.startswith("wrong structural_isomorphisms")


def test_a_hang_becomes_a_counted_timeout(tmp_path):
    from daggereq import cli

    harness.signal.signal(harness.signal.SIGALRM, harness._alarm)
    [check] = _write_checks(tmp_path, [gen._copies(random.Random(1), 9)])
    elapsed, status, _ = harness.run_check(cli, tmp_path, check, limit=0.3)
    assert status == "timeout" and elapsed < 2.0


def test_traced_spans_account_for_the_check_time(tmp_path):
    from daggereq import cli, diagram, semantics, terms

    rng = random.Random(14)
    word = gen._word_cycle(rng, 20)
    checks = _write_checks(tmp_path, [gen._reverse_pair(rng, 7), word])
    tracer, totals = tracing.Tracer(), tracing.LayerTotals()
    originals = (diagram.find_isos, semantics.denote, terms.close_pair)
    tracer.install({"cli": cli, "terms": terms, "diagram": diagram, "semantics": semantics})
    try:
        for check in checks:
            elapsed, status, _ = harness.run_check(cli, tmp_path, check, limit=20.0)
            assert status == "ok"
            totals.add_check(tracer.take(), elapsed)
    finally:
        tracer.uninstall()
    assert (diagram.find_isos, semantics.denote, terms.close_pair) == originals
    assert totals.accounted() == pytest.approx(totals.check_time)
    layers = totals.metrics(overhead_s=0.0)
    assert layers["semantics.witness_yield"] == 0.5  # dimension 2 fails, 3 succeeds
    assert layers["semantics.naive_assignments"] == 3 ** 7  # two calls, over two checks
    assert layers["diagram.isos_enumerated"] == word[2]["count"] / 2
    assert layers["semantics.denote_naive_s"] > 0


def test_tail_has_ten_samples_beyond_it():
    p, value, beyond = harness.tail([float(i) for i in range(1, 43)])
    assert (p, value, beyond) == (75, 32.0, 10)
    p, value, beyond = harness.tail([float(i) for i in range(1, 2001)])
    assert (p, beyond) == (99, 20)


def test_verify_needs_a_separating_witness():
    record = ('{"verdict": "not-equal", "structural_isomorphisms": 0, '
              '"semantic_isomorphisms": 0, "value_a": "1+0i", "value_b": "1+0i", '
              '"witness": {"dims": {"X": 3}}}')
    expect = {"equal": False, "count": 0}
    assert harness.verify(1, record, expect) == "wrong: no separating witness"
    assert harness.verify(2, record, expect) == "wrong exit code 2"


def test_probe_runs_the_warm_up_check(tmp_path, monkeypatch):
    monkeypatch.delenv("DAGGEREQ_SEED", raising=False)
    gen.generate("witness_dim3", 1, tmp_path)
    assert harness.main(["probe", str(tmp_path)]) == 0
