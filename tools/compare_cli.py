"""Compare the CLI output of two source trees on the benchmark's inputs.

    python3 tools/compare_cli.py OLD_TREE NEW_TREE [--seed 1] [--mutants 200]

Writes the inputs ``perfbench/gen.py`` generates for each of its
workloads and the seed (the module is loaded from this checkout and not
changed), then runs ``check``, ``iso-count`` and ``poly`` in text and
JSON and ``export`` in both styles on every pair, the warm-up pair
included, once per tree.  ``--mutants N``
adds ``check`` runs on N term files with one character deleted or
inserted, most of which are parse errors, and on N signature files
mutated the same way, each read through the ``use`` lines of a copied
pair of term files.  Each tree runs in its own
subprocess with ``PYTHONHASHSEED=0`` and ``DAGGEREQ_SEED`` unset, and
calls ``daggereq.cli.main`` in-process from the workload's directory.

Prints every invocation whose stdout, stderr or exit code differs and
a summary line; exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
MUTANT_CHARS = ";()[],*x# \n"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _mutate(text: str, rng: random.Random) -> str:
    pos = rng.randrange(len(text) + 1)
    if text and rng.random() < 0.5:
        return text[:pos] + text[pos + 1:]
    return text[:pos] + rng.choice(MUTANT_CHARS) + text[pos:]


def invocations(work: Path, seed: int, mutants: int) -> list:
    """Write the inputs under ``work``; return ``(cwd, argv)`` for each run."""
    gen = _load_gen()
    runs = []
    for workload in gen.WORKLOADS:
        out = work / workload
        manifest = gen.generate(workload, seed, out)
        for c in [manifest["warmup"], *manifest["checks"]]:
            pair = [c["a"], c["b"]]
            runs.append((str(out), ["check", *pair, "--seed", str(c["seed"])]))
            runs.append((str(out), ["check", *pair, "--seed", str(c["seed"]),
                                    "--format", "json"]))
            for command in ("iso-count", "poly"):
                runs.append((str(out), [command, *pair]))
                runs.append((str(out), [command, *pair, "--format", "json"]))
            for style in ("text", "dot"):
                runs.append((str(out), ["export", c["a"], "--style", style]))
    rng = random.Random(f"mutants:{seed}")
    terms = sorted(work.glob("*/p*.term"))
    for i in range(mutants if terms else 0):
        path = rng.choice(terms)
        mutant = path.parent / f"mutant{i:04d}.term"
        mutant.write_text(_mutate(path.read_text(), rng))
        runs.append((str(path.parent), ["check", mutant.name, path.name]))
    rng = random.Random(f"sig-mutants:{seed}")
    pairs = sorted(work.glob("*/p*a.term"))
    for i in range(mutants if pairs else 0):
        a = rng.choice(pairs)
        sig = a.parent / f"mutant{i:04d}.sig"
        sig.write_text(_mutate((a.parent / "sig.sig").read_text(), rng))
        names = []
        for path in (a, a.with_name(a.name.replace("a.term", "b.term"))):
            copy = a.parent / f"sigmutant{i:04d}{path.name[-6:]}"
            copy.write_text(path.read_text().replace("use sig.sig", f"use {sig.name}", 1))
            names.append(copy.name)
        runs.append((str(a.parent), ["check", *names]))
    return runs


def worker(tree: str, jobs: str, results: str) -> None:
    """Run every invocation in ``jobs`` against ``tree``; write ``results``."""
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    from daggereq import cli

    out = []
    for cwd, argv in json.loads(Path(jobs).read_text()):
        os.chdir(cwd)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit):  # a crash is an outcome to compare too
                rc = "crash"
                traceback.print_exc(limit=0)
        out.append([rc, stdout.getvalue(), stderr.getvalue()])
    Path(results).write_text(json.dumps(out))


def _run_tree(tree: str, jobs: Path, results: Path) -> list:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DAGGEREQ_SEED", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    subprocess.run([sys.executable, __file__, "--worker", tree, str(jobs), str(results)],
                   env=env, check=True)
    return json.loads(results.read_text())


def _show(text: str) -> str:
    return text if len(text) <= 300 else text[:300] + f"... ({len(text)} chars)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mutants", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        work = Path(tmp)
        runs = invocations(work, args.seed, args.mutants)
        jobs = work / "jobs.json"
        jobs.write_text(json.dumps(runs))
        old = _run_tree(args.old, jobs, work / "old.json")
        new = _run_tree(args.new, jobs, work / "new.json")
        differ = 0
        for (cwd, argv_), a, b in zip(runs, old, new):
            if a == b:
                continue
            differ += 1
            print(f"[{Path(cwd).name}] daggereq {' '.join(argv_)}")
            for field, x, y in zip(("exit", "stdout", "stderr"), a, b):
                if x != y:
                    print(f"  {field} old: {_show(str(x))!r}")
                    print(f"  {field} new: {_show(str(y))!r}")
    print(f"{len(runs)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
    else:
        sys.exit(main())
