from __future__ import annotations

import os
from pathlib import Path

import pytest

# Subprocesses started by tests (``python -m daggereq``) import the
# same source tree as the tests, installed or not.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"),
]))

from daggereq import parse_signature, parse_term

WORKED_SIG = """\
object A
object B
morphism f : B -> A x A
morphism g : A x B -> B x A
"""

# Two presentations of the same closed diagram: a three-box cycle
# g -> f -> f-dagger with a self-loop on g.
WORKED_N = "tr[B](f ; dagger(f) ; tr[A](sym[B,A] ; g))"
WORKED_M = "tr[B](tr[A](sym[B,A] ; g) ; f ; dagger(f))"

PARE_SIG = """\
object X
morphism a : X -> X
morphism b : X -> X
"""

# Matrix traces of the words AABBAB and AABABB; composition order in
# the terms is the reverse of matrix product order.
PARE_WORD_1 = "tr[X](b ; a ; b ; b ; a ; a)"
PARE_WORD_2 = "tr[X](b ; b ; a ; b ; a ; a)"


@pytest.fixture
def worked():
    sig = parse_signature(WORKED_SIG)
    return sig, parse_term(WORKED_N, sig), parse_term(WORKED_M, sig)


@pytest.fixture
def pare():
    sig = parse_signature(PARE_SIG)
    return sig, parse_term(PARE_WORD_1, sig), parse_term(PARE_WORD_2, sig)
