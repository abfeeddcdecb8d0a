"""Every certificate check is a real check: forcing its replay to fail
raises CertificateError, with or without ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from datawords import ca, games, nra
from datawords.corpus import ca_fin
from datawords.errors import CertificateError
from datawords.ra import RegisterAutomaton, TTop
from datawords.words import alphabet

from test_refutation import four_root_hops

SRC = Path(__file__).resolve().parent.parent / "src"


def accept_all() -> RegisterAutomaton:
    return RegisterAutomaton(alphabet("a", "b"), ("t",), "t", 0, {"t": TTop()},
                             {"t": 0}, {"t": 0})


def test_nra_witness_replay_raises(monkeypatch):
    assert nra.nonempty_finite(accept_all()).is_nonempty
    monkeypatch.setattr(nra, "accepts", lambda a, w: False)
    with pytest.raises(CertificateError):
        nra.nonempty_finite(accept_all())


def test_ca_finite_witness_replay_raises(monkeypatch):
    assert ca.nonempty_finite_incrementing(ca_fin()).is_nonempty
    monkeypatch.setattr(ca, "accepts_word", lambda *args, **kw: ca.EMPTY)
    with pytest.raises(CertificateError):
        ca.nonempty_finite_incrementing(ca_fin())


def test_ca_spawn_cycle_replay_raises(monkeypatch):
    # the lasso search's failed replays are skipped, so the refutation closes
    # the spawn cycle and replays it
    assert ca.nonempty_infinite_incrementing(four_root_hops(), 1000).is_nonempty
    monkeypatch.setattr(ca, "verify_lasso", lambda c, lasso: False)
    with pytest.raises(CertificateError, match="spawn cycle"):
        ca.nonempty_infinite_incrementing(four_root_hops(), 1000)


def test_signature_check_raises(monkeypatch):
    g = games.WeakGame(["p"], {"p": 2}, {"p": []}, {"p": 0})
    assert games.signature(g) == {"p": 0}
    monkeypatch.setattr(games, "check_signature", lambda g, alpha: (False, "forced"))
    with pytest.raises(CertificateError, match="forced"):
        games.signature(g)


PROBE = """
from datawords import nra
from datawords.errors import CertificateError
from datawords.ra import RegisterAutomaton, TTop
from datawords.words import alphabet

nra.accepts = lambda a, w: False
a = RegisterAutomaton(alphabet("a"), ("t",), "t", 0, {"t": TTop()}, {"t": 0}, {"t": 0})
try:
    nra.nonempty_finite(a)
except CertificateError:
    print("raised; asserts on:", __debug__)
"""


CA_PROBE = """
from datawords import ca
from datawords.corpus import ca_fin
from datawords.errors import CertificateError

ca.accepts_word = lambda *args, **kw: ca.EMPTY
try:
    ca.nonempty_finite_incrementing(ca_fin())
except CertificateError:
    print("raised; asserts on:", __debug__)
"""


LASSO_PROBE = """
from datawords import ca
from datawords.errors import CertificateError
from datawords.words import alphabet

ca.verify_lasso = lambda c, lasso: False
c = ca.CounterAutomaton(alphabet("a", "b"), ("q0", "q2", "q1"), "q0", 1, (
    ("q2", "b", "dec", 1, "q0"), ("q1", "a", "dec", 1, "q1"),
    ("q0", "a", "inc", 1, "q2"), ("q2", "a", "inc", 1, "q1")), frozenset({"q1", "q2"}))
try:
    ca.nonempty_infinite_incrementing(c, 1000)
except CertificateError:
    print("raised; asserts on:", __debug__)
"""


def run_optimized(probe: str) -> str:
    proc = subprocess.run([sys.executable, "-O", "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_witness_check_survives_optimize():
    assert run_optimized(PROBE) == "raised; asserts on: False"


def test_ca_witness_check_survives_optimize():
    assert run_optimized(CA_PROBE) == "raised; asserts on: False"


def test_ca_spawn_cycle_check_survives_optimize():
    assert run_optimized(LASSO_PROBE) == "raised; asserts on: False"
