"""Seeded input generator for the daggereq benchmark.

Writes term files for one workload and a manifest that pairs every two
files with the answer ``daggereq check`` must give.  The answer comes
from how the pair was built, never from daggereq itself, so this module
imports nothing from the package:

* a uniform cycle of n boxes has n automorphisms;
* a word cycle against its rotation has n / period automorphisms;
* k disjoint copies of one rigid loop have k! automorphisms;
* a term whose boxes all carry distinct labels has at most one
  automorphism, so an equal rewrite of it has count 1;
* swapping one generator for a same-typed one changes the label
  multiset, and a word cycle against its reverse (when the reverse is
  not a rotation) changes the cyclic order, so both are unequal.

The same workload and seed always write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("iso_large", "witness_dim3", "small_mixed")

# One pass of each workload, as (family, size).  A run repeats whole
# passes, so every run sees the same mix and only the seed-dependent
# content changes.  Repeated sizes form blocks of near-equal latency
# where the median and the p75 tail fall (near items 10 and 15 of 20),
# so that those percentiles measure one kind of check instead of
# jumping between neighbouring sizes.
ISO_LARGE = (
    [("copies", k) for k in (3, 4, 5, 6, 7)]
    + [("word_cycle", 100), ("word_cycle", 150)]
    + [("uniform_cycle", 60)] * 6
    + [("uniform_cycle", 80)] * 4
    + [("word_cycle", 400), ("uniform_cycle", 100), ("copies", 9)]
)
WITNESS_DIM3 = (
    [("shuffled_word", n) for n in (7, 7, 8, 8, 9, 10)]
    + [("reverse_word", 7)] * 7
    + [("reverse_word", 8)] * 5
    + [("reverse_word", 9), ("reverse_word", 10)]
)
# The deep chains of depth 600 form the block the p99 tail falls in;
# the one failing depth per pass stays rarer than the samples beyond it.
SMALL_MIXED = (
    [("random_term", 0)] * 240
    + [("deep_chain", d) for d in (200, 300, 400, 500, 600, 600, 600, 600)]
    + [("deep_chain", 3000)]
)
MAX_WIRES = 8

# Per-check time limit in seconds.  Every passing input of a workload
# takes well under a third of it on a 2-vCPU x86 host; 9 copies in
# iso_large take over three times it today.
TIME_LIMIT = {"iso_large": 4.0, "witness_dim3": 12.0, "small_mixed": 4.0}

# Seconds one pass took at the seed commit on that host.  A run of
# --seconds S makes round(S / PASS_SECONDS) whole passes, so that every
# run, and every commit, measures the same work.
PASS_SECONDS = {"iso_large": 12.0, "witness_dim3": 10.0, "small_mixed": 3.5}

LOOP_SIG = """kind traced-monoidal
object X
morphism a : X -> X
morphism b : X -> X
"""

# Every generator has an ``_alt`` twin of the same sort, used only to
# build unequal pairs.  Balanced generators (the same factors in domain
# and codomain, up to stars moving sides) let a term be closed by a
# trace; the others leave it open, so daggereq closes it itself.
MIXED_GENERATORS = (
    ("f", "A", "B"),
    ("g", "B x C*", "A"),
    ("h", "A x B*", "B* x A"),
    ("k", "C", "C"),
    ("m", "A x B", "B x A"),
    ("n", "C* x A", "A x C*"),
    ("p", "I", "A"),
    ("q", "B", "I"),
    ("r", "A x C", "C x A"),
    ("s", "B*", "B*"),
)


def mixed_signature() -> str:
    lines = ["kind compact-closed", "object A", "object B", "object C"]
    for name, dom, cod in MIXED_GENERATORS:
        for label in (name, name + "_alt"):
            lines.append(f"morphism {label} : {dom} -> {cod}")
    return "\n".join(lines) + "\n"


WARMUP = ("tr[X](a ; b ; a)", "tr[X](b ; a ; a)")


# -- known answers -------------------------------------------------------

def cyclic_period(word: list[str]) -> int:
    """Smallest p > 0 with the word unchanged by rotating it p places."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[p:] + word[:p] == word:
            return p
    return n


def is_rotation(u: list[str], w: list[str]) -> bool:
    return len(u) == len(w) and any(u == w[i:] + w[:i] for i in range(len(w)))


def word_cycle_count(word: list[str]) -> int:
    return len(word) // cyclic_period(word)


def copies_count(k: int) -> int:
    return math.factorial(k)


# -- rendering helpers ---------------------------------------------------

def _chain(atoms: list[str], rng: random.Random) -> str:
    """Join atoms with ';', grouping random runs of them in brackets."""
    parts, i = [], 0
    while i < len(atoms):
        size = min(len(atoms) - i, rng.choice((1, 1, 2, 3, 5)))
        run = atoms[i:i + size]
        parts.append(run[0] if size == 1 else "(" + " ; ".join(run) + ")")
        i += size
    return " ; ".join(parts)


def _dagger_form(word: list[str]) -> str:
    """The word written as the dagger of its reversed adjoint."""
    return "dagger(" + " ; ".join(x + "†" for x in reversed(word)) + ")"


def _tensor(parts: list[str], rng: random.Random) -> str:
    if len(parts) == 1:
        return parts[0]
    cut = rng.randrange(1, len(parts))
    left, right = _tensor(parts[:cut], rng), _tensor(parts[cut:], rng)
    return f"({left}) x ({right})"


# -- iso_large and witness_dim3 ------------------------------------------

def _random_word(rng: random.Random, n: int) -> list[str]:
    while True:
        w = [rng.choice("ab") for _ in range(n)]
        if "a" in w and "b" in w:
            return w


def _uniform_cycle(rng, n):
    a = f"tr[X]({_chain(['a'] * n, rng)})"
    b = f"tr[X]({_dagger_form(['a'] * n)})"
    return a, b, {"equal": True, "count": n}


def _word_cycle(rng, n):
    w = _random_word(rng, n)
    r = rng.randrange(1, n)
    rot = w[r:] + w[:r]
    a = f"tr[X]({_chain(w, rng)})"
    body = _dagger_form(rot) if rng.random() < 0.5 else _chain(rot, rng)
    return a, f"tr[X]({body})", {"equal": True, "count": word_cycle_count(w)}


def _copies(rng, k):
    loop_a = ["tr[X](a ; b)"] * k
    loop_b = [rng.choice(("tr[X](a ; b)", "tr[X](b ; a)", "tr[X](dagger(b† ; a†))"))
              for _ in range(k)]
    return (" x ".join(loop_a), _tensor(loop_b, rng),
            {"equal": True, "count": copies_count(k)})


def _reverse_pair(rng, n):
    while True:
        w = _random_word(rng, n)
        if not is_rotation(w[::-1], w):
            break
    return (f"tr[X]({_chain(w, rng)})", f"tr[X]({_chain(w[::-1], rng)})",
            {"equal": False, "count": 0, "witness_dims": [3]})


def _shuffled_pair(rng, n):
    while True:
        w = _random_word(rng, n)
        u = w[:]
        rng.shuffle(u)
        if not (is_rotation(u, w) or is_rotation(u, w[::-1])):
            break
    return (f"tr[X]({_chain(w, rng)})", f"tr[X]({_chain(u, rng)})",
            {"equal": False, "count": 0})


# -- small_mixed ----------------------------------------------------------

def _sort(text: str) -> list[str]:
    return [] if text == "I" else text.split(" x ")


def _sort_text(factors: list[str]) -> str:
    return " x ".join(factors) if factors else "I"


class _Term:
    """A term as a list of layers, each a list of tensor pieces.

    Pieces are ``("id", factors)``, ``("box", name, daggered)``,
    ``("sym", left, right)`` or ``("eta", factor)``.  Every box label
    occurs at most once.
    """

    def __init__(self):
        self.dom: list[str] = []
        self.cur: list[str] = []
        self.layers: list[list[tuple]] = []
        self.sorts: list[list[str]] = [[]]  # sort before each layer, then after the last
        self.traced: list[str] | None = None

    def add(self, pieces: list[tuple], new_sort: list[str]) -> None:
        self.layers.append([p for p in pieces if not (p[0] == "id" and not p[1])])
        self.cur = new_sort
        self.sorts.append(new_sort)

    def extend_dom(self, factors: list[str]) -> None:
        """Feed extra inputs past every layer built so far."""
        self.dom = self.dom + factors
        for layer in self.layers:
            layer.append(("id", factors))
        self.sorts = [s + factors for s in self.sorts]
        self.cur = self.cur + factors


def _star(factor: str) -> str:
    return factor[:-1] if factor.endswith("*") else factor + "*"


def _random_mixed(rng: random.Random, nboxes: int) -> _Term:
    t = _Term()
    for name, dom, cod in rng.sample(MIXED_GENERATORS, nboxes):
        daggered = rng.random() < 0.3
        d, c = (_sort(cod), _sort(dom)) if daggered else (_sort(dom), _sort(cod))
        spots = [i for i in range(len(t.cur) - len(d) + 1) if t.cur[i:i + len(d)] == d]
        if not spots:
            t.extend_dom(d)
            spots = [len(t.cur) - len(d)]
        i = rng.choice(spots)
        pre, post = t.cur[:i], t.cur[i + len(d):]
        t.add([("id", pre), ("box", name, daggered), ("id", post)], pre + c + post)
        if len(t.cur) >= 2 and rng.random() < 0.4:
            _swap(t, rng.randrange(len(t.cur) - 1))
        if rng.random() < 0.15:
            x = rng.choice(("A", "B", "C", "A*"))
            t.add([("id", t.cur), ("eta", x)], t.cur + [_star(x), x])
    if t.cur and sorted(t.cur) == sorted(t.dom) and rng.random() < 0.8:
        # Reorder the outputs into the input order, then trace them all.
        for target in range(len(t.dom)):
            j = t.cur.index(t.dom[target], target)
            for k in range(j - 1, target - 1, -1):
                _swap(t, k)
        t.traced = t.dom
    return t


def _swap(t: _Term, i: int) -> None:
    """Swap factors i and i+1 of the current sort with a symmetry layer."""
    pre, x, y, post = t.cur[:i], t.cur[i], t.cur[i + 1], t.cur[i + 2:]
    t.add([("id", pre), ("sym", [x], [y]), ("id", post)], pre + [y, x] + post)


def _piece_text(p: tuple, alt: str | None, dagger_box: bool) -> str:
    kind = p[0]
    if kind == "id":
        return f"id[{_sort_text(p[1])}]"
    if kind == "sym":
        return f"sym[{_sort_text(p[1])},{_sort_text(p[2])}]"
    if kind == "eta":
        return f"eta[{p[1]}]"
    name = p[1] + "_alt" if p[1] == alt else p[1]
    if dagger_box:
        # f written as dagger(f†), and f† as dagger(f).
        return f"dagger({name})" if p[2] else f"dagger({name}†)"
    return name + "†" if p[2] else name


def _layer_text(layer: list[tuple], alt=None, dagger_box=False) -> str:
    return " x ".join(_piece_text(p, alt, dagger_box) for p in layer)


def _render(t: _Term, rng: random.Random, rewrite: bool, alt: str | None) -> str:
    """Render a term; ``rewrite`` applies equality-preserving rewrites."""
    texts: list[str] = []
    for idx, layer in enumerate(t.layers):
        text = _layer_text(layer, alt, rewrite and rng.random() < 0.3)
        if len(layer) > 1:
            text = f"({text})"
        if rewrite and rng.random() < 0.2:
            text = f"dagger(dagger({text}))"
        texts.append(text)
        if rewrite and rng.random() < 0.2:
            texts.append(_filler(t.sorts[idx + 1], rng))
    if rewrite and len(texts) > 2:
        cut = rng.randrange(1, len(texts))
        texts = [f"({' ; '.join(texts[:cut])})", f"({' ; '.join(texts[cut:])})"]
    body = " ; ".join(texts)
    if t.traced is not None:
        body = f"tr[{_sort_text(t.traced)}]({body})"
    return body


def _filler(sort: list[str], rng: random.Random) -> str:
    """An identity on ``sort``, or a symmetry followed by its inverse."""
    if len(sort) >= 2 and rng.random() < 0.5:
        cut = rng.randrange(1, len(sort))
        left, right = _sort_text(sort[:cut]), _sort_text(sort[cut:])
        return f"sym[{left},{right}] ; sym[{right},{left}]"
    return f"id[{_sort_text(sort)}]"


def _box_names(t: _Term) -> list[str]:
    return [p[1] for layer in t.layers for p in layer if p[0] == "box"]


def _wires(t: _Term) -> int:
    """Wires of the closed diagram: one per output port after the star
    translation moves starred factors to the other side, counting the
    boxes daggereq adds to close an open term."""
    def outputs(dom: list[str], cod: list[str]) -> int:
        return (sum(not x.endswith("*") for x in cod)
                + sum(x.endswith("*") for x in dom))
    count = 0
    for layer in t.layers:
        for p in layer:
            if p[0] == "box":
                _, dom, cod = next(g for g in MIXED_GENERATORS if g[0] == p[1])
                d, c = _sort(dom), _sort(cod)
                count += outputs(c, d) if p[2] else outputs(d, c)
    if t.traced is None:
        count += outputs([], t.dom) + outputs(t.cur, [])
    return count


def _small_mixed(rng: random.Random, nboxes: int) -> _Term:
    """A random term with at most ``MAX_WIRES`` wires, so that the
    witness re-check, exponential in the wires, stays cheap."""
    while True:
        t = _random_mixed(rng, nboxes)
        if _wires(t) <= MAX_WIRES:
            return t


def _mixed_pair(rng, nboxes, equal):
    t = _small_mixed(rng, nboxes)
    a = _render(t, rng, rewrite=False, alt=None)
    alt = None if equal else rng.choice(_box_names(t))
    b = _render(t, rng, rewrite=True, alt=alt)
    return a, b, {"equal": equal, "count": 1 if equal else 0}


def _deep_pair(rng, depth):
    """``m ; ... ; m†`` with ``depth`` identity or symmetry layers on
    ``B x A`` between the two boxes, against the same with half as many."""
    def chain(n):
        layers: list[str] = []
        while len(layers) < n:
            layers.extend(_filler(["B", "A"], rng).split(" ; "))
        return " ; ".join(["m"] + layers + ["m†"])

    return chain(depth), chain(depth // 2), {"equal": True, "count": 1}


# -- workloads --------------------------------------------------------------

_FAMILIES = {
    "uniform_cycle": _uniform_cycle,
    "word_cycle": _word_cycle,
    "copies": _copies,
    "reverse_word": _reverse_pair,
    "shuffled_word": _shuffled_pair,
    "deep_chain": _deep_pair,
}
_PASSES = {"iso_large": ISO_LARGE, "witness_dim3": WITNESS_DIM3, "small_mixed": SMALL_MIXED}


def _plan(workload: str, rng: random.Random) -> list[tuple[str, int, tuple]]:
    """(family, size, (term_a, term_b, expect)) for each check of one pass."""
    pairs = []
    for i, (family, size) in enumerate(_PASSES[workload]):
        if family == "random_term":
            size = rng.randint(2, 5)
            pairs.append((family, size, _mixed_pair(rng, size, equal=i % 2 == 0)))
        else:
            pairs.append((family, size, _FAMILIES[family](rng, size)))
    return pairs


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one pass of ``workload`` under ``out_dir``; return the manifest.

    The manifest is also written as ``manifest.json``.  Each check gets
    its own ``--seed`` derived from the workload seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    pairs = _plan(workload, rng)
    rng.shuffle(pairs)
    out_dir.mkdir(parents=True, exist_ok=True)
    sig_text = mixed_signature() if workload == "small_mixed" else LOOP_SIG
    (out_dir / "sig.sig").write_text(sig_text)
    (out_dir / "loop.sig").write_text(LOOP_SIG)
    checks = []
    for i, (family, size, (text_a, text_b, expect)) in enumerate(pairs):
        names = []
        for side, text in (("a", text_a), ("b", text_b)):
            name = f"p{i:03d}{side}.term"
            (out_dir / name).write_text(f"use sig.sig\n{text}\n")
            names.append(name)
        checks.append({"a": names[0], "b": names[1], "family": family, "size": size,
                       "seed": rng.randrange(1 << 30), "expect": expect})
    for side, text in zip("ab", WARMUP):
        (out_dir / f"warmup{side}.term").write_text(f"use loop.sig\n{text}\n")
    manifest = {
        "workload": workload,
        "seed": seed,
        "time_limit_s": TIME_LIMIT[workload],
        "pass_seconds": PASS_SECONDS[workload],
        "warmup": {"a": "warmupa.term", "b": "warmupb.term", "seed": 0,
                   "family": "warmup", "size": 3,
                   "expect": {"equal": True, "count": 1}},
        "checks": checks,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def digest(out_dir: Path) -> str:
    """SHA-256 over every generated file, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
