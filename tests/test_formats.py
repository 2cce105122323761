"""The line-oriented file formats share one comment rule: ``#`` starts a
comment, blank lines are skipped, and errors carry file line numbers."""

import pytest

from daggereq import (
    GaussianIntegerRing,
    ParseError,
    parse_diagram,
    parse_interpretation,
    parse_signature,
)

SIG = parse_signature("object A\nmorphism h : A -> A\n")

# Per reader: how to call it, its code lines, what it read from them,
# and a code line it rejects.
READERS = {
    "signature": (parse_signature,
                  ["object A  # the one object", "morphism h : A -> A# a loop"],
                  lambda sig: [str(f) for f in sig.base_morphisms] == ["h : A -> A"],
                  "bogus A"),
    "diagram": (lambda text: parse_diagram(text, SIG),
                ["box b0 : h  # the box", "wire w0 : A from b0.out1 to b0.in1 #loop"],
                lambda d: (d.n_boxes, d.n_wires) == (1, 1),
                "bogus w0"),
    "interpretation": (lambda text: parse_interpretation(text, SIG, GaussianIntegerRing()),
                       ["dim A = 1  # one", "h[0|0] = 2+3i # an entry"],
                       lambda interp: interp.space == {SIG.object("A"): 1},
                       "bogus = 1"),
}


@pytest.mark.parametrize("name", READERS)
def test_comments_and_blank_lines_are_skipped_and_errors_keep_file_lines(name):
    read, code, check, bad = READERS[name]
    lines = ["# leading comment", "", "   ", code[0], "", "  # indented comment", code[1], ""]
    assert check(read("\n".join(lines)))
    lines.insert(6, bad + "  # the bad line")
    with pytest.raises(ParseError) as info:
        read("\n".join(lines))
    assert info.value.line == 7
    assert str(info.value).startswith("7: ")
