"""Benchmark for ``daggereq check``, run from the root of a checkout:

    python3 perfbench/run.py --workload iso_large --seed 1 --seconds 30 --trace 0

Writes the workload's term files for ``--seed`` under ``.perfbench_work/``,
times the set-up of fresh processes, then runs the workload in one more
fresh process (``harness.py``) and prints the end-to-end metrics, or with
``--trace 1`` the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the checkout has no
``src/daggereq``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 10

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DAGGEREQ_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def setup_seconds(workdir: Path, env: dict) -> list[float]:
    """Wall time of fresh processes that import daggereq and run the
    warm-up check."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), "probe", str(workdir)],
            env=env, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr.decode())
    return times


def run_workload(workdir: Path, seconds: int, trace: int, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), "run", str(workdir),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("workload process failed:\n" + proc.stderr.decode())
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _report_failures(out: dict) -> str:
    parts = [f"{n} {s}" for s, n in sorted(out["statuses"].items()) if s != "ok"]
    return ", ".join(parts) if parts else "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "daggereq" / "cli.py").is_file():
        print(f"error: no daggereq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = _child_env()
    try:
        gen.generate(args.workload, args.seed, workdir)
        digest = gen.digest(workdir)
        setup = None if args.trace else setup_seconds(workdir, env)
        out = run_workload(workdir, args.seconds, args.trace, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {out['attempted']} checks in "
          f"{out['passes']} passes of {out['pass_length']}, {out['wall_s']:.1f} s, "
          f"one closed-loop client")
    print(f"python {out['python']}, nproc {out['nproc']}, inputs sha256 {digest}")
    print(f"known-answer check: {'pass' if out['wrong'] == 0 else 'FAIL'}; "
          f"failures: {_report_failures(out)}; "
          f"fail_share {out['failed'] / out['attempted']:.4f} "
          f"({out['failed']}/{out['attempted']})")
    if args.trace:
        print(f"traced outcomes identical to untraced: "
              f"{'yes' if out['mismatched'] == 0 else 'NO, ' + str(out['mismatched'])}; "
              f"layer self times + cli.self_s = {out['accounted_s']:.6f} s "
              f"of {out['traced_time_s']:.6f} s traced check time")
        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    else:
        out["metrics"]["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = (f"  (p{out['tail_percentile']:g} of {out['attempted']} samples, "
                    f"{out['tail_beyond']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh processes)"
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
