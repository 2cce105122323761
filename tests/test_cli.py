import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from daggereq import (
    Compose,
    GaussianIntegerRing,
    Id,
    Sort,
    TensorTerm,
    Trace,
    Var,
    compile_term,
    denote,
    parse_diagram,
    parse_interpretation,
    parse_signature,
    parse_term,
    signature_to_text,
    term_to_text,
    type_check,
)
from daggereq import semantics
from daggereq.cli import main
from daggereq.diagram import decide_equal
from daggereq.signature import int_translate

from conftest import PARE_SIG, PARE_WORD_1, PARE_WORD_2, WORKED_M, WORKED_N, WORKED_SIG
import genutil

gauss = GaussianIntegerRing()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def worked_files(tmp_path):
    sig = write(tmp_path, "sig.txt", WORKED_SIG)
    a = write(tmp_path, "n.term", WORKED_N + "\n")
    b = write(tmp_path, "m.term", WORKED_M + "\n")
    return sig, a, b


@pytest.fixture
def pare_files(tmp_path):
    sig = write(tmp_path, "sig.txt", PARE_SIG)
    a = write(tmp_path, "w1.term", PARE_WORD_1 + "\n")
    b = write(tmp_path, "w2.term", PARE_WORD_2 + "\n")
    return sig, a, b


def test_check_equal_terms(worked_files, capsys):
    sig, a, b = worked_files
    assert main(["check", "--sig", sig, a, b]) == 0
    out = capsys.readouterr().out
    assert "verdict: equal" in out
    assert "structural_isomorphisms: 1" in out
    assert "isomorphism boxes:" in out


def test_check_equal_terms_json(worked_files, capsys):
    sig, a, b = worked_files
    assert main(["check", "--format", "json", "--sig", sig, a, b]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "check"
    assert record["verdict"] == "equal"
    assert record["structural_isomorphisms"] == 1
    assert record["semantic_isomorphisms"] == 1
    assert record["isomorphism"]["boxes"]["b0"] == "b1"


def test_check_unequal_terms_escalates_dimensions(pare_files, capsys):
    sig, a, b = pare_files
    assert main(["check", "--format", "json", "--sig", sig, a, b]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "not-equal"
    assert record["structural_isomorphisms"] == 0
    notes = " ".join(record["notes"])
    assert "no witness at dimensions [2]" in notes
    assert "witness found at dimensions [3]" in notes
    assert record["witness"]["dims"] == {"X": 3}
    assert record["value_a"] != record["value_b"]


def test_check_witness_file_replays(pare_files, tmp_path, capsys):
    sig_path, a, b = pare_files
    out_path = tmp_path / "witness.txt"
    code = main(["check", "--format", "json", "--sig", sig_path, a, b,
                 "--witness-out", str(out_path)])
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    sig = parse_signature(PARE_SIG)
    interp = parse_interpretation(out_path.read_text(),
                                  int_translate(sig)[0], gauss)
    d1 = compile_term(parse_term(PARE_WORD_1, sig), sig)
    d2 = compile_term(parse_term(PARE_WORD_2, sig), sig)
    assert gauss.format(denote(d1, interp)) == record["value_a"]
    assert gauss.format(denote(d2, interp)) == record["value_b"]


def test_check_explicit_dims_can_miss(pare_files, capsys):
    sig, a, b = pare_files
    assert main(["check", "--sig", sig, a, b, "--dims", "X=2",
                 "--trials", "20"]) == 1
    out = capsys.readouterr().out
    assert "no witness at dimensions [2]" in out
    assert "witness found" not in out


def test_check_float_ring(pare_files, capsys):
    sig, a, b = pare_files
    assert main(["check", "--sig", sig, a, b, "--ring", "float",
                 "--dims", "X=3"]) == 1
    out = capsys.readouterr().out
    assert "witness found at dimensions [3]" in out


def test_check_loop_count_witness(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\n")
    a = write(tmp_path, "a.term", "tr[A](id[A])\n")
    b = write(tmp_path, "b.term", "id[I]\n")
    assert main(["check", "--format", "json", "--sig", sig, a, b,
                 "--dims", "A=2"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["trivial_cycles_equal"] is False
    assert record["value_a"] == "2+0i"
    assert record["value_b"] == "1+0i"


def test_iso_count_command(worked_files, capsys):
    sig, a, b = worked_files
    assert main(["iso-count", "--sig", sig, a, b]) == 0
    out = capsys.readouterr().out
    assert "isomorphisms: 1" in out
    assert "semantic isomorphism count: 1" in out


def test_iso_count_zero_exits_one(pare_files, capsys):
    sig, a, b = pare_files
    assert main(["iso-count", "--format", "json", "--sig", sig, a, b]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["structural_isomorphisms"] == 0
    assert record["semantic_isomorphisms"] == 0


def test_iso_count_of_twelve_loop_copies(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", PARE_SIG)
    a = write(tmp_path, "a.term", " x ".join(["tr[X](a ; b)"] * 12) + "\n")
    # The same loops, rotated, daggered twice and regrouped.
    forms = ["tr[X](b ; a)", "tr[X](dagger(b† ; a†))", "tr[X](a ; b)"]
    loops = [forms[i % 3] for i in range(12)]
    b = write(tmp_path, "b.term", " x ".join(
        "(" + " x ".join(loops[i:i + 4]) + ")" for i in range(0, 12, 4)) + "\n")
    assert main(["iso-count", "--format", "json", "--sig", sig, a, b]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["structural_isomorphisms"] == 479001600
    assert record["semantic_isomorphisms"] == 479001600


def test_poly_command(worked_files, capsys):
    sig, a, b = worked_files
    assert main(["poly", "--format", "json", "--sig", sig, a, b]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["coefficient"] == 1
    assert record["target_monomial"] == "x0*x1*x2"
    assert set(record["reference_boxes"]) == {"b0", "b1", "b2"}


def test_poly_notes_trivial_cycles(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\nmorphism h : A -> A\n")
    a = write(tmp_path, "a.term", "tr[A](h) x tr[A](id[A])\n")
    b = write(tmp_path, "b.term", "tr[A](h)\n")
    assert main(["poly", "--format", "json", "--sig", sig, a, b]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["coefficient"] == 1
    assert any("trivial cycles" in n for n in record["notes"])


def test_export_text_round_trips(worked_files, capsys):
    sig_path, a, _ = worked_files
    assert main(["export", "--style", "text", "--sig", sig_path, a]) == 0
    text = capsys.readouterr().out
    sig = parse_signature(WORKED_SIG)
    d = parse_diagram(text, sig)
    assert d == compile_term(parse_term(WORKED_N, sig), sig)


def test_export_dot_output_file(worked_files, tmp_path):
    sig, a, _ = worked_files
    out = tmp_path / "d.dot"
    assert main(["export", "--sig", sig, a, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph diagram {")
    assert 'b0 [label="f"' in text


def test_export_closes_open_terms(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\nmorphism h : A -> A\n")
    t = write(tmp_path, "t.term", "h\n")
    assert main(["export", "--style", "text", "--sig", sig, t]) == 0
    captured = capsys.readouterr()
    assert "closed with fresh variables" in captured.err
    assert "b0 : close_in" in captured.out
    assert "b2 : close_out" in captured.out


def test_use_line_resolves_relative_to_the_term_file(tmp_path, capsys):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "sig.txt").write_text(WORKED_SIG)
    a = write(sub, "n.term", "use sig.txt\n" + WORKED_N + "\n")
    b = write(sub, "m.term", "use sig.txt\n" + WORKED_M + "\n")
    assert main(["check", a, b]) == 0
    assert "verdict: equal" in capsys.readouterr().out


def test_a_use_line_in_the_second_file_serves_both(tmp_path, capsys):
    write(tmp_path, "sig.txt", WORKED_SIG)
    a = write(tmp_path, "n.term", WORKED_N + "\n")
    b = write(tmp_path, "m.term", "# reference\nuse sig.txt\n" + WORKED_M + "\n")
    assert main(["check", a, b]) == 0
    assert "verdict: equal" in capsys.readouterr().out


def test_the_first_use_line_in_argument_order_wins(tmp_path, capsys):
    write(tmp_path, "sig.txt", WORKED_SIG)
    a = write(tmp_path, "n.term", "use sig.txt\n" + WORKED_N + "\n")
    b = write(tmp_path, "m.term", "use missing.txt\n" + WORKED_M + "\n")
    assert main(["check", a, b]) == 2
    assert "missing.txt" in capsys.readouterr().err
    assert main(["check", b, a]) == 2
    assert "missing.txt" in capsys.readouterr().err


def test_sig_flag_wins_over_use_lines(tmp_path, capsys):
    sig = write(tmp_path, "real.txt", "object A\nmorphism h : A -> A\n")
    a = write(tmp_path, "a.term", "use missing.txt\ntr[A](h)\n")
    b = write(tmp_path, "b.term", "use missing.txt\ntr[A](h)\n")
    assert main(["check", "--sig", sig, a, b]) == 0


def test_missing_signature_is_an_error(tmp_path, capsys):
    a = write(tmp_path, "a.term", "id[I]\n")
    b = write(tmp_path, "b.term", "id[I]\n")
    assert main(["check", a, b]) == 2
    assert "no signature" in capsys.readouterr().err


def test_missing_file_is_an_error(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\n")
    assert main(["check", "--sig", sig, "nope.term", "also-nope.term"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_dims_are_an_error(pare_files, capsys):
    sig, a, b = pare_files
    assert main(["check", "--sig", sig, a, b, "--dims", "X=banana"]) == 2
    assert "bad --dims" in capsys.readouterr().err
    assert main(["check", "--sig", sig, a, b, "--dims", "Q=2"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--dims", "X=banana"], "bad --dims"),
    (["--ring", "float", "--tolerance", "-1"], "tolerance must be nonnegative"),
    (["--ring", "float", "--tolerance", "nan"], "tolerance must be nonnegative and finite"),
    (["--ring", "float", "--tolerance", "inf"], "tolerance must be nonnegative and finite"),
    (["--tolerance", "-1"], "tolerance must be nonnegative"),
    (["--tolerance", "nan"], "tolerance must be nonnegative and finite"),
    (["--tolerance", "inf"], "tolerance must be nonnegative and finite"),
])
def test_bad_witness_flags_are_an_error_on_equal_terms(worked_files, capsys,
                                                       flags, message):
    sig, a, b = worked_files
    assert main(["check", "--sig", sig, a, b] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("flags, expected", [
    ([], {"value_a": "-524649164980774436072320474901121298154584"
                     "+447190521354007159716270353861244079997614i",
          "value_b": "-318354145203667962234250784456226567825541"
                     "+444135415604530282406775551810902248063960i",
          "trial": 0, "seed": 0, "text_sha256":
          "8d128071cd7045bb91433ac758498f4219b6d3c2e040c21f05790339af143f28"}),
    (["--ring", "float", "--dims", "X=3"],
     {"value_a": "3.064316927976586-7.6103228299860906i",
      "value_b": "3.6354643458980043-2.2968622493691955i",
      "trial": 0, "seed": 0, "text_sha256":
      "caaec1fc6b0052ed8d18c4820f860b0530e279869cbf1c29847b2ca21c12a02d"}),
])
def test_check_witness_is_pinned_by_the_seed(pare_files, capsys, flags, expected):
    sig, a, b = pare_files
    assert main(["check", "--format", "json", "--sig", sig, a, b] + flags) == 1
    record = json.loads(capsys.readouterr().out)
    witness = record["witness"]
    assert {
        "value_a": record["value_a"],
        "value_b": record["value_b"],
        "trial": witness["trial"],
        "seed": witness["seed"],
        "text_sha256": hashlib.sha256(witness["text"].encode()).hexdigest(),
    } == expected


def test_module_entry_point(worked_files):
    sig, a, b = worked_files
    proc = subprocess.run(
        [sys.executable, "-m", "daggereq", "check", "--sig", sig, a, b],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: equal" in proc.stdout


def test_parse_errors_report_position(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\nmorphism h : A -> A\n")
    a = write(tmp_path, "a.term", "tr[A](h ;)\n")
    b = write(tmp_path, "b.term", "tr[A](h)\n")
    assert main(["check", "--sig", sig, a, b]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "1:" in err


def test_parse_errors_name_the_file_and_its_line(tmp_path, capsys):
    write(tmp_path, "s.sig", "object A\nmorphism f : A -> A\n")
    write(tmp_path, "a.term", "use s.sig\n\n# c\n\nf ; ; f\n")
    write(tmp_path, "b.term", "use s.sig\nf ; f\n")
    assert main(["check", str(tmp_path / "b.term"), str(tmp_path / "a.term")]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'a.term'}:5:5: expected a term, got ';'\n")


@pytest.mark.parametrize("via_use", [False, True])
def test_signature_parse_errors_name_the_signature_file(tmp_path, capsys, via_use):
    sig = write(tmp_path, "s.sig", "object A\nmorphism f : A -> Q\n")
    a = write(tmp_path, "a.term", "use s.sig\nf\n" if via_use else "f\n")
    argv = ["check", a, a] if via_use else ["check", "--sig", sig, a, a]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {sig}:2: unknown object 'Q'\n"


def test_object_line_errors_name_the_signature_file_and_line(tmp_path, capsys):
    sig = write(tmp_path, "s.sig", "object A\nobject A\n")
    a = write(tmp_path, "a.term", "id[I]\n")
    assert main(["check", "--sig", sig, a, a]) == 2
    assert capsys.readouterr().err == f"error: {sig}:2: duplicate object 'A'\n"


@pytest.mark.parametrize("undecodable", ["term", "signature"])
def test_undecodable_files_are_bad_input(tmp_path, capsys, undecodable):
    sig = write(tmp_path, "s.sig", "object A\nmorphism f : A -> A\n")
    ok = write(tmp_path, "ok.term", "f ; f\n")
    binary = tmp_path / "bin.term"
    binary.write_bytes(b"\xff\xfe\x00bad")
    if undecodable == "term":
        argv = ["check", "--sig", sig, ok, str(binary)]
    else:
        argv = ["check", "--sig", str(binary), ok, ok]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {binary}: ")
    assert "can't decode byte 0xff" in captured.err
    assert captured.err.count("\n") == 1


def test_float_tolerance_sets_the_witness_comparison(pare_files, capsys):
    # No two values differ by more than twice the larger, so tolerance 2
    # accepts no candidate.
    sig, a, b = pare_files
    assert main(["check", "--sig", sig, a, b, "--ring", "float",
                 "--dims", "X=3", "--tolerance", "2"]) == 1
    out = capsys.readouterr().out
    assert "no witness at dimensions [3]" in out
    assert "witness found" not in out


def test_negative_trials_are_an_error(pare_files, capsys):
    sig, a, b = pare_files
    assert main(["check", "--sig", sig, a, b, "--trials", "-3"]) == 2
    assert "--trials" in capsys.readouterr().err


def test_the_parser_is_built_once():
    from daggereq.cli import _build_parser

    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("opener", ["(", "dagger("], ids=["paren", "dagger"])
def test_100k_nested_brackets_check_equal(tmp_path, capsys, opener):
    # The parser keeps its own stack of open brackets, so depth is
    # limited by memory, not by Python's recursion limit.
    sig = write(tmp_path, "sig.txt", "object A\nmorphism h : A -> A\n")
    n = 100_000
    deep = write(tmp_path, "deep.term", "tr[A](" + opener * n + "h" + ")" * n + ")\n")
    assert main(["check", "--sig", sig, deep, deep]) == 0
    assert capsys.readouterr().out.startswith("verdict: equal\n")


def test_a_10k_layer_chain_checks_equal(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\nobject B\nmorphism m : A x B -> B x A\n")
    layers = ["id[B x A]", "sym[B,A] ; sym[A,B]"]

    def chain(n):
        return " ; ".join(["m"] + [layers[i % 2] for i in range(n)] + ["m†"])

    a = write(tmp_path, "a.term", chain(10_000) + "\n")
    b = write(tmp_path, "b.term", chain(5_000) + "\n")
    assert main(["check", "--format", "json", "--sig", sig, a, b]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["structural_isomorphisms"] == record["semantic_isomorphisms"] == 1


# Pieces of term syntax, right and wrong, that mutations splice in.
_JUNK = ["(", ")", ";", " x ", "dagger(", "tr[A](", "tr[B* x C](", "eta[A]", "eps[B*]",
         "id[A x B]", "sym[A,B*]", "*", "†", "f", "k†", "u", "nope", "[", "]", ",", "I",
         "#", "\n", "use sig.sig\n", "x"]


def _mutate(text: str, rng: random.Random) -> str:
    """Delete, insert or duplicate up to three random spans of ``text``."""
    for _ in range(rng.randint(0, 3)):
        i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(_JUNK) + text[i:]
        else:
            text = text[:i] + text[i:j] * 2 + text[j:]
    return text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["check", "iso-count", "poly"]))
def test_mutated_term_files_exit_zero_one_or_two(seed, command):
    # Random compact closed terms, some open, against an equal rewrite,
    # an unequal one of the same type or another random term, then
    # mangled: every outcome must be a verdict or an error message,
    # never an escaped exception.
    rng = random.Random(seed)
    sig = genutil.starred_signature()
    t = genutil.random_term(rng, sig, steps=rng.randint(1, 5))
    u = rng.choice([
        genutil.rebracket(t, rng, sig),
        TensorTerm(genutil.rebracket(t, rng, sig), Compose(Var("u"), Var("u†"))),
        genutil.random_term(rng, sig, steps=rng.randint(1, 5)),
    ])
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sig.sig").write_text(signature_to_text(sig))
        names = []
        for name, term in (("a.term", t), ("b.term", u)):
            text = term_to_text(term)
            if rng.random() < 0.5:
                text = _mutate(text, rng)
            (Path(tmp) / name).write_text("use sig.sig\n" + text + "\n")
            names.append(str(Path(tmp) / name))
        argv = [command, *names] + (["--trials", "2"] if command == "check" else [])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == "" or err.getvalue().startswith("error: ")


def _mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    """One to three byte-level edits of ``data``: a flipped bit, an
    inserted NUL, 0xff, '†' or carriage return, a truncation or a
    duplicated span."""
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(len(data) + 1) for _ in range(2))
        op = rng.randrange(4)
        if op == 0 and i < len(data):
            data = data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
        elif op == 1:
            data = data[:i] + rng.choice([b"\0", b"\xff", "†".encode(), b"\r"]) + data[i:]
        elif op == 2:
            data = data[:i]
        else:
            data = data[:i] + data[i:j] * 2 + data[j:]
    return data


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["check", "iso-count", "poly", "export"]),
       st.sampled_from(["text", "json"]))
def test_mutated_term_bytes_exit_zero_one_or_two(seed, command, fmt):
    # The byte-level sibling of the test above: term files, their 'use'
    # line included, with bytes that may not decode or may not tokenize.
    # Every outcome is a verdict or one error line; export may add its
    # note that it closed the term.
    rng = random.Random(seed)
    sig = genutil.starred_signature()
    t = genutil.random_term(rng, sig, steps=rng.randint(1, 5))
    u = (genutil.rebracket(t, rng, sig) if rng.random() < 0.5
         else genutil.random_term(rng, sig, steps=rng.randint(1, 5)))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sig.sig").write_text(signature_to_text(sig))
        names = []
        for name, term in (("a.term", t), ("b.term", u)):
            data = ("use sig.sig\n" + term_to_text(term) + "\n").encode()
            (Path(tmp) / name).write_bytes(_mutate_bytes(data, rng))
            names.append(str(Path(tmp) / name))
        argv = [command, *names[:1 if command == "export" else 2], "--format", fmt]
        argv += ["--trials", "2"] if command == "check" else []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert [line for line in lines if not line.startswith("error: ")] in (
        [], ["note: term was closed with fresh variables"])
    assert sum(line.startswith("error: ") for line in lines) <= 1


def test_a_nul_in_a_use_path_is_bad_input(tmp_path, capsys):
    a = tmp_path / "a.term"
    a.write_bytes(b"use s\0.sig\nf\n")
    assert main(["check", str(a), str(a)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(": embedded null byte\n")


def test_run_reports_an_unexpected_fault_in_one_line(monkeypatch, capsys):
    # main() lets faults it does not know through, so that a caller's
    # own exceptions propagate; the process entry turns them into exit 2.
    from daggereq import cli

    def broken(argv=None):
        raise RuntimeError("boom\nmore")

    monkeypatch.setattr(cli, "main", broken)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: internal error: RuntimeError('boom\\nmore')\n"


def _reverse_word_files(tmp_path, letters: int, seed: int) -> tuple[str, str, str]:
    """A signature and two trace words of ``letters`` letters, one the
    reverse of the other; they are unequal unless the word is a rotation
    of its reverse."""
    rng = random.Random(seed)
    word = [rng.choice("ab") for _ in range(letters)]
    sig = write(tmp_path, "sig.txt", PARE_SIG)
    a = write(tmp_path, "a.term", "tr[X](" + " ; ".join(word) + ")\n")
    b = write(tmp_path, "b.term", "tr[X](" + " ; ".join(reversed(word)) + ")\n")
    return sig, a, b


def test_values_past_the_int_digit_limit_print_and_replay(tmp_path, capsys):
    # 80 letters make values of about 700 digits, past the least limit
    # on int-to-str conversion that Python allows.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python has no limit on int-to-str conversions")
    sig_path, a, b = _reverse_word_files(tmp_path, 80, seed=4)
    sig = parse_signature(PARE_SIG)
    t1, t2 = (parse_term(Path(p).read_text(), sig) for p in (a, b))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["check", "--sig", sig_path, a, b]) == 1
        out = capsys.readouterr().out
        record = _check_and_replay(tmp_path, sig, t1, t2)
        values = [gauss.parse(record[key]) for key in ("value_a", "value_b")]
    finally:
        sys.set_int_max_str_digits(limit)
    assert f"value of A: {record['value_a']}\n" in out
    assert max(len(record["value_a"]), len(record["value_b"])) > 640
    assert [gauss.format(v) for v in values] == [record["value_a"], record["value_b"]]


def _check_and_replay(tmp_path, sig, t1, t2, flags=()):
    """Run ``check`` on two unequal terms with ``--witness-out``, replay
    the witness file on the compiled diagrams and return the record."""
    sig_path = write(tmp_path, "replay.sig", signature_to_text(sig))
    a = write(tmp_path, "a.term", term_to_text(t1) + "\n")
    b = write(tmp_path, "b.term", term_to_text(t2) + "\n")
    out_path = tmp_path / "witness.txt"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["check", "--format", "json", "--sig", sig_path, a, b,
                     "--witness-out", str(out_path), *flags])
    assert code == 1
    record = json.loads(out.getvalue())
    assert record["value_a"] != record["value_b"]
    result = decide_equal(t1, t2, sig)
    da, db = result.diagram_a, result.diagram_b
    # The witness interprets the generators the diagrams use, closing
    # generators included.
    interp = parse_interpretation(out_path.read_text(),
                                  semantics._signature_of((da, db)), gauss)
    assert gauss.format(denote(da, interp)) == record["value_a"]
    assert gauss.format(denote(db, interp)) == record["value_b"]
    return record


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans(), st.booleans())
def test_every_unequal_pair_gets_a_witness_that_replays(seed, starred,
                                                        construction_only):
    # Random terms, some open, against another term of the same type or
    # against themselves with an extra scalar: a trivial cycle, or boxes.
    # With the escalation emptied, the completeness construction must
    # separate every unequal pair on its own.
    rng = random.Random(seed)
    sig = genutil.starred_signature() if starred else genutil.gen_signature()
    t1 = genutil.random_term(rng, sig, rng.randint(0, 8))
    t2 = None
    for _ in range(20):
        t = genutil.random_term(rng, sig, rng.randint(0, 8))
        if type_check(t, sig) == type_check(t1, sig):
            t2 = t
            break
    if t2 is None or rng.random() < 0.4:
        scalar = (Compose(Var("u"), Var("u†")) if starred else Var("s"))
        loop = Trace(Sort.of(sig.objects[0]), Id(Sort.of(sig.objects[0])))
        t2 = TensorTerm(t1, rng.choice([scalar, loop]))
    if decide_equal(t1, t2, sig).equal:
        return
    escalation = () if construction_only else semantics.ESCALATION
    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(semantics, "ESCALATION", escalation):
        record = _check_and_replay(Path(tmp), sig, t1, t2)
    notes = " ".join(record["notes"])
    assert ("completeness construction" in notes) == construction_only


@pytest.mark.parametrize("escalation, sig_text, term_a, term_b, dims", [
    # The README's reverse words agree on all 2x2 matrices; the
    # construction gives X the six wires of the second word.
    ((2,), PARE_SIG, PARE_WORD_1, PARE_WORD_2, {"X": 6}),
    # At dimension 1 a loop is worth 1; the construction pads A to 2.
    ((1,), "object A\nmorphism t : A -> A\n",
     "tr[A](id[A]) x tr[A](t)", "tr[A](t)", {"A": 2}),
    # u is not in the second term: its zero matrix writes one zero entry.
    ((), "object A\nmorphism t : A -> A\nmorphism u : A -> A\n",
     "tr[A](t) x tr[A](u)", "tr[A](t) x tr[A](t)", {"A": 2}),
])
def test_the_construction_ends_the_search(tmp_path, monkeypatch, escalation,
                                          sig_text, term_a, term_b, dims):
    monkeypatch.setattr(semantics, "ESCALATION", escalation)
    sig = parse_signature(sig_text)
    record = _check_and_replay(tmp_path, sig, parse_term(term_a, sig),
                               parse_term(term_b, sig))
    assert record["witness"]["dims"] == dims
    assert record["notes"][:-1] == [
        *(f"no witness at dimensions [{k}] after 2 trials" for k in escalation),
        f"witness found at dimensions {sorted(set(dims.values()))} "
        "(completeness construction, trial 0)",
    ]


@pytest.mark.parametrize("flags, trials, magnitude", [
    ([], 2, 1 << 23),  # six boxes: the least power of two >= 6 * 2^20
    (["--trials", "7"], 7, 1 << 23),  # the count changes, the range does not
    (["--ring", "float"], 100, None),
])
def test_the_default_search_is_sized_by_the_ring(pare_files, capsys, monkeypatch,
                                                 flags, trials, magnitude):
    calls = []
    sample = semantics.random_interpretation

    def counting(sig, dims, ring, seed=0, magnitude=None):
        calls.append(magnitude)
        return sample(sig, dims, ring, seed, magnitude)

    monkeypatch.setattr(semantics, "random_interpretation", counting)
    sig, a, b = pare_files
    assert main(["check", "--format", "json", "--sig", sig, a, b] + flags) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["notes"][0] == f"no witness at dimensions [2] after {trials} trials"
    assert record["witness"]["dims"] == {"X": 3}
    assert calls == [magnitude] * (trials + record["witness"]["trial"] + 1)


def test_random_interpretations_have_an_entry_budget(pare_files, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(semantics, "ENTRY_BUDGET", 100)
    sig, a, b = pare_files
    # Two generators of X -> X: 2 * 7^2 = 98 entries fit, 2 * 11^2 = 242 do not.
    assert main(["check", "--sig", sig, a, b, "--dims", "X=7"]) == 1
    capsys.readouterr()
    assert main(["check", "--sig", sig, a, b, "--dims", "X=11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a random interpretation at these dimensions "
                            "needs 242 matrix entries, over the budget of 100\n")


def test_the_default_search_skips_dimensions_over_the_budget(tmp_path,
                                                             monkeypatch):
    # Two generators of X -> X: 2 * 2^2 = 8 entries fit, 2 * 3^2 = 18 do
    # not, so dimension 3 is skipped and the construction separates.
    monkeypatch.setattr(semantics, "ENTRY_BUDGET", 10)
    sig = parse_signature(PARE_SIG)
    record = _check_and_replay(tmp_path, sig, parse_term(PARE_WORD_1, sig),
                               parse_term(PARE_WORD_2, sig))
    assert record["notes"][:-1] == [
        "no witness at dimensions [2] after 2 trials",
        "no witness at dimensions [3]: a random interpretation at these "
        "dimensions needs 18 matrix entries, over the budget of 10",
        "witness found at dimensions [6] (completeness construction, trial 0)",
    ]
    assert record["witness"]["dims"] == {"X": 6}


S1_SIG = "object A\nmorphism f : A -> A\n"


@pytest.mark.parametrize("body_b", ["tr[A](g)", "tr[A](f)"])
def test_use_lines_naming_different_signatures_are_an_error(tmp_path, capsys, body_b):
    s1 = write(tmp_path, "s1.sig", S1_SIG)
    s2 = write(tmp_path, "s2.sig", S1_SIG + "morphism g : A -> A\n")
    a = write(tmp_path, "a.term", "use s1.sig\ntr[A](f)\n")
    b = write(tmp_path, "b.term", f"use s2.sig\n{body_b}\n")
    assert main(["check", a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {a} and {b} use different signatures: {s1} and {s2}\n")


@pytest.mark.parametrize("use_b, parses", [("sig.sig", 1), ("copy.sig", 2)])
def test_each_use_path_is_parsed_once(tmp_path, capsys, monkeypatch, use_b, parses):
    from daggereq import cli

    write(tmp_path, "sig.sig", WORKED_SIG)
    write(tmp_path, "copy.sig", WORKED_SIG)
    a = write(tmp_path, "n.term", "use sig.sig\n" + WORKED_N + "\n")
    b = write(tmp_path, "m.term", f"use {use_b}\n" + WORKED_M + "\n")
    texts = []
    parse = cli.parse_signature
    monkeypatch.setattr(cli, "parse_signature", lambda text: texts.append(text) or parse(text))
    assert main(["check", a, b]) == 0
    assert "verdict: equal" in capsys.readouterr().out
    assert texts == [WORKED_SIG] * parses


def test_check_verifies_the_isomorphism_it_prints(tmp_path, capsys, monkeypatch):
    from daggereq import diagram

    sig = write(tmp_path, "s.sig", S1_SIG + "morphism g : A -> A\n")
    a = write(tmp_path, "a.term", "tr[A](f ; g)\n")
    b = write(tmp_path, "b.term", "tr[A](g ; f)\n")
    argv = ["check", "--sig", sig, a, b]
    assert main(argv) == 0
    assert "isomorphism boxes: b0->b1 b1->b0" in capsys.readouterr().out
    iso = diagram._iso

    def swapped(n, m, pairs):
        found = iso(n, m, pairs)
        return diagram.DiagramIso(found.wire_map, found.box_map[::-1])

    monkeypatch.setattr(diagram, "_iso", swapped)
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "cross-check failed: the printed isomorphism does not verify" in out
    assert "isomorphism boxes:" not in out
