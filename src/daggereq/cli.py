"""Command line interface.

Commands:

* ``check``     decide equality of two terms, searching for a separating
                matrix interpretation when they differ
* ``iso-count`` count diagram isomorphisms two ways and cross-check
* ``poly``      evaluate the first term under the polynomial
                interpretation of the second
* ``export``    compile one term and print its diagram (dot or text)

Exit codes: 0 the terms are equal (or the command succeeded), 1 they
are not equal, 2 bad input or internal disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import diagram as dg
from . import semantics as sm
from . import terms as tm
from .errors import DaggereqError, ParseError
from .scalars import DEFAULT_TOLERANCE, make_ring
from .signature import Signature, parse_signature

DEFAULT_SEED = 0


class _Report:
    """Collects output lines and a json record side by side."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.record: dict = {}
        self.lines: list[str] = []

    def field(self, key: str, value, text: str | None = None) -> None:
        self.record[key] = value
        self.lines.append(text if text is not None else f"{key}: {value}")

    def note(self, text: str) -> None:
        self.record.setdefault("notes", []).append(text)
        self.lines.append(text)

    def emit(self) -> None:
        if self.as_json:
            print(json.dumps(self.record, indent=2))
        else:
            for line in self.lines:
                print(line)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except ValueError as exc:  # undecodable, or a NUL in a 'use' path
        raise DaggereqError(f"{path}: {exc}") from None


def _load_signature(path: str) -> Signature:
    text = _read(path)
    try:
        return parse_signature(text)
    except ParseError as exc:  # it carries a line
        raise ParseError(f"{path}:{exc}") from None


def _load_terms(args, names: list[str]) -> tuple[Signature, list[tm.Term]]:
    """The signature (``--sig``, else the first ``use`` line; every later
    one must load and agree, each path parsed once) and the terms."""
    sig = _load_signature(args.sig) if args.sig else None
    texts = [_read(name) for name in names]
    uses = [] if args.sig else [
        (name, str(Path(name).parent / path)) for name, text in zip(names, texts)
        if (path := tm.use_path(text)) is not None]
    loaded: dict[str, Signature] = {}
    for name, path in uses:
        if path not in loaded:
            loaded[path] = _load_signature(path)
        if sig is None:
            sig = loaded[path]
        elif loaded[path] != sig:
            raise DaggereqError(f"{uses[0][0]} and {name} use different "
                                f"signatures: {uses[0][1]} and {path}")
    if sig is None:
        raise DaggereqError(
            "no signature: pass --sig or put a 'use PATH' line in a term file")
    terms = []
    for name, text in zip(names, texts):
        try:
            terms.append(tm.parse_term_file(text, sig)[0])
        except ParseError as exc:  # it carries a line and column
            raise ParseError(f"{name}:{exc}") from None
    return sig, terms


def _parse_dims(text: str | None, sig: Signature) -> dict | None:
    if not text:
        return None
    dims = {}
    for part in text.split(","):
        name, eq, value = part.partition("=")
        try:
            dims[sig.object(name.strip())] = int(value)
        except (ValueError, DaggereqError):
            raise DaggereqError(f"bad --dims entry {part!r}") from None
    if any(v < 0 for v in dims.values()):
        raise DaggereqError("dimensions must be nonnegative")
    return dims


def _iso_text(iso: dg.DiagramIso) -> dict:
    return {
        "boxes": {f"b{b}": f"b{c}" for b, c in enumerate(iso.box_map)},
        "wires": {f"w{w}": f"w{v}" for w, v in enumerate(iso.wire_map)},
    }


def _decide(args, command: str) -> tuple[_Report, Signature, dg.EqualityResult]:
    """Load both terms and decide their equality structurally."""
    sig, (t1, t2) = _load_terms(args, [args.term_a, args.term_b])
    report = _Report(args.format == "json")
    report.record["command"] = command
    return report, sig, dg.decide_equal(t1, t2, sig)


def _cross_check(report: _Report, result: dg.EqualityResult, name: str) -> bool:
    """Report the structural and semantic isomorphism counts.

    The semantic route ignores trivial cycles, so it must agree with
    the structural count only when the trivial cycles agree; otherwise
    the structural count must be 0.  On disagreement the report is
    emitted with a note and False is returned.
    """
    a, b = result.diagram_a, result.diagram_b
    trivial_equal = a.trivial_cycles == b.trivial_cycles
    sem_count = sm.iso_count_semantic(a.without_trivial_cycles(),
                                      b.without_trivial_cycles())
    structural = result.isomorphism_count
    report.field("structural_isomorphisms", structural, f"{name}: {structural}")
    report.field("semantic_isomorphisms", sem_count,
                 f"semantic isomorphism count: {sem_count}")
    report.field("trivial_cycles_equal", trivial_equal,
                 f"trivial cycles equal: {'yes' if trivial_equal else 'no'}")
    if structural != (sem_count if trivial_equal else 0):
        report.note("cross-check failed: the two isomorphism counts disagree")
        report.emit()
        return False
    return True


def cmd_check(args) -> int:
    if args.trials is not None and args.trials < 0:
        raise DaggereqError("--trials must be nonnegative")
    report, sig, result = _decide(args, "check")
    ring = make_ring(args.ring, args.tolerance)
    dims = _parse_dims(args.dims, sig)
    report.field("verdict", "equal" if result.equal else "not-equal",
                 "verdict: " + ("equal" if result.equal else "not equal"))
    if not _cross_check(report, result, "structural_isomorphisms"):
        return 2

    if result.equal:
        iso = result.isomorphism
        if not iso.verify(result.diagram_a, result.diagram_b):
            report.note("cross-check failed: the printed isomorphism does not verify")
            report.emit()
            return 2
        report.record["isomorphism"] = maps = _iso_text(iso)
        for part, pairs in maps.items():
            report.lines.append(f"isomorphism {part}: " + " ".join(
                f"{x}->{y}" for x, y in pairs.items()))
        report.emit()
        return 0

    witness = sm.find_witness(result.diagram_a, result.diagram_b, dims, ring,
                              trials=args.trials, seed=args.seed,
                              on_miss=report.note)
    if witness:
        used = sorted(set(witness.interpretation.space.values()))
        how = "completeness construction, " if witness.construction else ""
        report.note(f"witness found at dimensions {used} ({how}trial {witness.trial})")
        text = sm.interpretation_to_text(witness.interpretation)
        for side, value in (("a", witness.value_a), ("b", witness.value_b)):
            report.field(f"value_{side}", ring.format(value),
                         f"value of {side.upper()}: {ring.format(value)}")
        report.record["witness"] = {
            "trial": witness.trial,
            "seed": witness.seed,
            "dims": {str(a): k for a, k in sorted(
                witness.interpretation.space.items(), key=lambda kv: kv[0].name)},
            "text": text,
        }
        if args.witness_out:
            Path(args.witness_out).write_text(text)
            report.note(f"witness written to {args.witness_out}")
        else:
            report.lines.append(text.rstrip("\n"))
    report.emit()
    return 1


def cmd_iso_count(args) -> int:
    report, _, result = _decide(args, "iso-count")
    if not _cross_check(report, result, "isomorphisms"):
        return 2
    report.emit()
    return 0 if result.isomorphism_count > 0 else 1


def cmd_poly(args) -> int:
    report, _, result = _decide(args, "poly")
    a = result.diagram_a.without_trivial_cycles()
    b = result.diagram_b.without_trivial_cycles()
    if not (result.diagram_a.is_simple and result.diagram_b.is_simple):
        report.note("trivial cycles are ignored by the polynomial evaluation")
    value, target = sm.iso_polynomial(a, b)
    report.field("reference_boxes",
                 {f"b{i}": f.display_name for i, f in enumerate(b.box_labels)},
                 "reference boxes: " + " ".join(
                     f"b{i}:{f.display_name}" for i, f in enumerate(b.box_labels)))
    report.field("polynomial", str(value))
    report.field("target_monomial", str(target), f"target monomial: {target}")
    report.field("coefficient", value.coefficient(target))
    report.emit()
    return 0


def cmd_export(args) -> int:
    sig, (t,) = _load_terms(args, [args.term])
    (dom, cod), (d,) = dg.compile_closed([t], sig)
    if not (dom.is_unit and cod.is_unit):
        print("note: term was closed with fresh variables", file=sys.stderr)
    if args.style == "dot":
        text = dg.export_dot(d)
    else:
        text = dg.diagram_to_text(d)
    if args.format == "json":
        text = json.dumps({"command": "export", "style": args.style, "source": text},
                          indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daggereq",
        description="Decide equality of dagger compact closed terms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, terms: list[str]) -> None:
        p.add_argument("--sig", help="signature file; otherwise the term "
                       "files must carry a 'use PATH' line")
        for name in terms:
            p.add_argument(name)
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("check", help="decide equality of two terms")
    common(p, ["term_a", "term_b"])
    p.add_argument("--ring", choices=["gauss", "float"], default="gauss",
                   help="scalar ring for the witness search")
    p.add_argument("--dims", help="object dimensions, e.g. A=3,B=2; "
                   f"unlisted objects get {sm.DEFAULT_DIM}")
    p.add_argument("--trials", type=int,
                   help="random trials per dimension; by default 2 on the "
                   "gauss ring, whose sample range is sized so that two "
                   "miss a difference with probability at most 2^-40, and "
                   "100 on the float ring")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--witness-out", help="write the witness interpretation here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("iso-count", help="count diagram isomorphisms both ways")
    common(p, ["term_a", "term_b"])
    p.set_defaults(func=cmd_iso_count)

    p = sub.add_parser("poly", help="polynomial value of term A under the "
                       "reference interpretation of term B")
    common(p, ["term_a", "term_b"])
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("export", help="compile a term and print its diagram")
    common(p, ["term"])
    p.add_argument("--style", choices=["dot", "text"], default="dot")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DaggereqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
    except Exception as exc:  # a fault nothing reports: one line, not a traceback
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    run()
