"""One workload in one fresh process: a closed-loop client that calls
``daggereq.cli.main(["check", ...])`` in-process, one check at a time.

    python3 perfbench/harness.py run WORKDIR --seconds S --trace 0|1
    python3 perfbench/harness.py probe WORKDIR

``run`` repeats whole passes over the checks in ``WORKDIR/manifest.json``,
as many as took ``S`` seconds at the seed commit, and prints one JSON
line of results.  With ``--trace 1`` it makes half as many passes
untraced, replays them with spans installed (see ``tracing.py``) and
compares every outcome.  ``probe`` imports daggereq and runs the warm-up check only;
``run.py`` times it as the set-up cost.

``run.py`` starts this file with ``PYTHONPATH`` pointing at ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

# Highest first; the tail is the first one with ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10


class CheckTimeout(Exception):
    """Raised by the interval timer when a check passes its limit.

    Deliberately neither an ``OSError`` nor a ``DaggereqError``:
    ``cli.main`` maps both to exit code 2, which would hide the cause.
    """


def _alarm(signum, frame):
    raise CheckTimeout()


def verify(rc: int, stdout: str, expect: dict) -> str:
    """``"ok"``, or why the check's answer is wrong."""
    equal = expect["equal"]
    if rc != (0 if equal else 1):
        return f"wrong exit code {rc}"
    try:
        record = json.loads(stdout)
    except ValueError:
        return "wrong: output is not one JSON record"
    if record.get("verdict") != ("equal" if equal else "not-equal"):
        return f"wrong verdict {record.get('verdict')!r}"
    for key in ("structural_isomorphisms", "semantic_isomorphisms"):
        if record.get(key) != expect["count"]:
            return f"wrong {key} {record.get(key)!r}, expected {expect['count']}"
    if not equal:
        witness = record.get("witness")
        if witness is None or record.get("value_a") == record.get("value_b"):
            return "wrong: no separating witness"
        dims = sorted(set(witness["dims"].values()))
        if "witness_dims" in expect and dims != expect["witness_dims"]:
            return f"wrong witness dimensions {dims}"
    return "ok"


def run_check(cli, workdir: Path, check: dict, limit: float) -> tuple[float, str, tuple]:
    """Run one check; return (seconds, status, outcome).

    ``status`` is ``ok``, ``timeout``, ``raised <Type>`` or ``wrong ...``;
    ``outcome`` holds everything the program returned, for comparing
    the traced run with the untraced one.
    """
    argv = ["check", str(workdir / check["a"]), str(workdir / check["b"]),
            "--format", "json", "--seed", str(check["seed"])]
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CheckTimeout:
        status = "timeout"
    except Exception as exc:  # a crash of the program under test is a counted failure
        status = f"raised {type(exc).__name__}"
    else:
        status = verify(rc, out.getvalue(), check["expect"])
    elapsed = time.perf_counter() - start
    return elapsed, status, (status, rc, out.getvalue(), err.getvalue())


def run_passes(cli, workdir, checks, limit, passes, after=None):
    """Run ``passes`` whole passes over ``checks``; return the results and
    the wall time.  ``after`` is called with each check's result."""
    results = []
    start = time.perf_counter()
    for _ in range(passes):
        for check in checks:
            result = run_check(cli, workdir, check, limit)
            if after is not None:
                after(result)
            results.append(result)
    return results, time.perf_counter() - start


def nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    with at least ten samples beyond it; the maximum when none has."""
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= TAIL_BEYOND:
            return p, nearest_rank(ordered, p), beyond
    return 100.0, ordered[-1], 0


def summarize(results, wall: float, limit: float) -> dict:
    statuses: dict[str, int] = {}
    for _, status, _ in results:
        statuses[status] = statuses.get(status, 0) + 1
    ok = statuses.get("ok", 0)
    attempted = len(results)
    # A failed check enters the latency samples at the limit.
    samples = sorted(t if s == "ok" else limit for t, s, _ in results)
    p, tail_value, beyond = tail(samples)
    return {
        "attempted": attempted,
        "failed": attempted - ok,
        "wrong": sum(k for s, k in statuses.items() if s.startswith("wrong")),
        "statuses": statuses,
        "wall_s": wall,
        "tail_percentile": p,
        "tail_beyond": beyond,
        "metrics": {
            "checks_per_s": ok / wall,
            "latency_p50_s": nearest_rank(samples, 50),
            "latency_tail_s": tail_value,
            "ok_share": ok / attempted,
        },
    }


def _load(workdir: Path):
    os.environ.pop("DAGGEREQ_SEED", None)  # it would override --seed
    from daggereq import cli

    manifest = json.loads((workdir / "manifest.json").read_text())
    signal.signal(signal.SIGALRM, _alarm)
    return cli, manifest


def probe(workdir: Path) -> int:
    cli, manifest = _load(workdir)
    _, status, _ = run_check(cli, workdir, manifest["warmup"], manifest["time_limit_s"])
    return 0 if status == "ok" else 1


def run(workdir: Path, seconds: float, trace: bool) -> dict:
    cli, manifest = _load(workdir)
    limit = manifest["time_limit_s"]
    checks = manifest["checks"]
    run_check(cli, workdir, manifest["warmup"], limit)
    budget = seconds / 2 if trace else seconds
    passes = max(1, int(budget / manifest["pass_seconds"] + 0.5))
    results, wall = run_passes(cli, workdir, checks, limit, passes)
    out = summarize(results, wall, limit)
    out.update(passes=passes, pass_length=len(checks),
               python=platform.python_version(), nproc=len(os.sched_getaffinity(0)))
    if not trace:
        out["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        out["correct"] = out["wrong"] == 0
        return out

    import tracing
    from daggereq import diagram, semantics, terms

    tracer = tracing.Tracer()
    totals = tracing.LayerTotals()
    tracer.install({"cli": cli, "terms": terms, "diagram": diagram,
                    "semantics": semantics})
    try:
        traced, traced_wall = run_passes(
            cli, workdir, checks, limit, passes,
            after=lambda r: totals.add_check(tracer.take(), r[0]))
    finally:
        tracer.uninstall()
    # Outcomes include the status, so equal outcomes also mean equal answers.
    mismatched = sum(u[2] != t[2] for u, t in zip(results, traced))
    out.update(
        layers=totals.metrics(traced_wall - wall),
        mismatched=mismatched,
        traced_time_s=totals.check_time,
        accounted_s=totals.accounted(),
        correct=out["wrong"] == 0 and mismatched == 0,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=["run", "probe"])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, help="needed by run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        return probe(args.workdir)
    if args.seconds is None:
        parser.error("run needs --seconds")
    print(json.dumps(run(args.workdir, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
