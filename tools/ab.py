"""Alternating A/B runs of the benchmark on two source trees.

    python3 tools/ab.py PARENT CHANGE --workloads witness_dim3 small_mixed \
        --seeds 101-110 --out BENCH_28.json [--claim witness_dim3:checks_per_s]

For each workload and seed, runs ``perfbench/run.py --trace 0`` once in
each tree, one after the other, with the parent first on odd seeds and
the change first on even ones, so drift of the machine over a run falls
on both sides alike.  Each tree runs its own copy of the benchmark.  The
metrics, their units and which direction is better are read from the
change tree's ``BENCHMARK.json``.

Writes one JSON file with, per workload and end-to-end metric, each
side's median and quartiles, the number of pairs in which the change is
strictly better, and the raw runs; it is rewritten after every pair, so
a stopped run keeps the pairs it finished.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"101,103,107"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    """One benchmark run in ``tree``; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    def quartiles(runs: list[float]) -> list[float]:
        if len(runs) < 2:
            return [runs[0], runs[0]]
        q = statistics.quantiles(runs, n=4, method="inclusive")
        return [round(q[0], 6), round(q[2], 6)]

    wins = sum((c > p) if better == "higher" else (c < p)
               for p, c in zip(parent, change))
    return {
        "parent_median": round(statistics.median(parent), 6),
        "change_median": round(statistics.median(change), 6),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "better": better,
        "pairs_change_better": wins,
        "pairs": len(parent),
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
    }


def _commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--parent-commit", help="default: the parent tree's git HEAD")
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {
        "benchmark": (f"'{' '.join(bench['command'])} --workload W --seed S "
                      f"--seconds {seconds} --trace 0'"),
        "change": args.describe,
        "parent_commit": args.parent_commit or _commit(args.parent),
        "seeds": args.seeds,
        "order": ("parent and change alternate per workload and seed; "
                  "the parent runs first on odd seeds"),
        "machine": (f"{len(os.sched_getaffinity(0))} CPUs, Python "
                    f"{platform.python_version()}; one run per side and seed, "
                    "so compare pairs, not seeds"),
        "workloads": {},
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claimed"] = {"workload": workload, "metric": metric}
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                try:
                    runs[side].append(run_once(tree, bench["command"], workload,
                                               seed, seconds))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
            out = {"all_answers_correct": all(
                r["correct"] for side in runs.values() for r in side)}
            for name in better:
                out[name] = summarize(
                    [r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]],
                    better[name])
            record["workloads"][workload] = out
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {out[name]['parent_runs'][-1]:.4g} -> "
                f"{out[name]['change_runs'][-1]:.4g}" for name in better), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
