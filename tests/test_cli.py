import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from daggereq import (
    Compose,
    GaussianIntegerRing,
    TensorTerm,
    Var,
    compile_term,
    denote,
    parse_diagram,
    parse_interpretation,
    parse_signature,
    parse_term,
    signature_to_text,
    term_to_text,
)
from daggereq.cli import main
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


def test_seed_env_var_overrides_the_flag(pare_files, capsys, monkeypatch):
    sig, a, b = pare_files
    monkeypatch.setenv("DAGGEREQ_SEED", "5")
    assert main(["check", "--format", "json", "--sig", sig, a, b,
                 "--seed", "7", "--dims", "X=3"]) == 1
    record = json.loads(capsys.readouterr().out)
    trial = record["witness"]["trial"]
    assert record["witness"]["seed"] == 5 * 1_000_003 + trial


def test_bad_seed_env_var(pare_files, capsys, monkeypatch):
    sig, a, b = pare_files
    monkeypatch.setenv("DAGGEREQ_SEED", "pi")
    assert main(["check", "--sig", sig, a, b]) == 2
    assert "DAGGEREQ_SEED" in capsys.readouterr().err


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
    assert main(["check", a, b]) == 0
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
])
def test_bad_witness_flags_are_an_error_on_equal_terms(worked_files, capsys,
                                                       flags, message):
    sig, a, b = worked_files
    assert main(["check", "--sig", sig, a, b] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("flags, expected", [
    ([], {"value_a": "330360+2443544i", "value_b": "516499+5847287i",
          "trial": 0, "seed": 0, "text_sha256":
          "a30ddcd81525258738e85314d09ff5d36de88bb71c8ea7c0952e8b6c1b78fd19"}),
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


def test_brackets_nested_past_the_stack_exit_two(tmp_path, capsys):
    sig = write(tmp_path, "sig.txt", "object A\nmorphism h : A -> A\n")
    deep = write(tmp_path, "deep.term", "tr[A](dagger(" * 400 + "h" + "))" * 400 + "\n")
    assert main(["check", "--sig", sig, deep, deep]) == 2
    assert capsys.readouterr().err == "error: term nested too deeply\n"


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
