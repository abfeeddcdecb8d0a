"""Deterministic work counters of the counter-machine deciders, pinned.

Counters do not drift with machine noise, so a change in them is a real
change in the work a decider does.  Every search calls
``CounterAutomaton.outgoing`` once per state it expands, so wrapping that
method counts those states: the states ``ca._search`` takes off its queue,
the states the Büchi decider's explorer expands, the nodes its tree
refutation expands and the states ``verify_lasso`` replays.  The finite
workload is the ``circle`` benchmark's: the finite machines of its seven
structured sentences over ``a, b``, each asked every letter word up to the
sentence's horizon, and their finite-word nonemptiness with its witness
replay.  The Büchi workload is ``nonempty_infinite_incrementing`` on the
infinite machines of the same sentences, at the ``buchi`` benchmark's
budget of 1000 and at a budget of 30,000, which decides three of them.
"""

import itertools

import pytest

from datawords.ca import (
    CounterAutomaton, accepts_word, nonempty_finite_incrementing,
    nonempty_infinite_incrementing,
)
from datawords.ltl import parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra2ca import build_ca_finite, build_ca_infinite
from datawords.words import Alphabet

from test_ra2ca import CIRCLE_SENTENCES

# the longest letter word circle asks each sentence's finite machine about
HORIZONS = {"phi": 4, "phi-Fa-Gnotb": 5, "b-never-again": 2, "phi-b-distinct": 2,
            "phi-b-then-a": 3, "a-then-no-b": 5, "some-match": 5}


@pytest.fixture(scope="module")
def finite_machines():
    ab = Alphabet(("a", "b"))
    return {name: build_ca_finite(ltl_to_ara(parse_ltl(text, ab), ab))
            for name, text in CIRCLE_SENTENCES.items()}


@pytest.fixture(scope="module")
def infinite_machines():
    ab = Alphabet(("a", "b"))
    return {name: build_ca_infinite(ltl_to_ara(parse_ltl(text, ab), ab))
            for name, text in CIRCLE_SENTENCES.items()}


@pytest.fixture
def popped(monkeypatch):
    count = [0]
    outgoing = CounterAutomaton.outgoing

    def counted(self, q):
        count[0] += 1
        return outgoing(self, q)

    monkeypatch.setattr(CounterAutomaton, "outgoing", counted)
    return count


def test_accepts_word_work(finite_machines, popped):
    for name, c in finite_machines.items():
        for n in range(1, HORIZONS[name] + 1):
            for w in itertools.product("ab", repeat=n):
                accepts_word(c, w)
    # 13,787 before ra2ca took each choice of a whole map in one step,
    # 17,025 before its cores shared their tails, 21,259 before the guide's
    # last-letter bits, 51,428 without the guide
    assert popped[0] == 10_061


def test_nonempty_finite_work(finite_machines, popped):
    kinds = {name: nonempty_finite_incrementing(c).kind
             for name, c in finite_machines.items()}
    assert sorted(name for name, kind in kinds.items() if kind == "nonempty") == \
        ["a-then-no-b", "phi", "some-match"]
    # the witness replays are word searches: 102 before ra2ca took each
    # choice of a whole map in one step, 108 before its cores shared their
    # tails, 118 before the guide's last-letter bits, 5,348 without the guide
    assert popped[0] == 88


def test_returning_locations(infinite_machines, popped):
    # the locations a lasso's cycle can start at, out of 546, 150, 922, 835,
    # 712, 44 and 246; the analysis expands no state.  Before ra2ca took each
    # choice of a whole map in one step they were 924, 53, 405, 1,083, 1,073,
    # 34 and 159 out of 1,061, 248, 1,650, 1,542, 1,418, 66 and 389
    sizes = {name: len(c._returning) for name, c in infinite_machines.items()}
    assert sizes == {"phi": 490, "phi-Fa-Gnotb": 38, "b-never-again": 257,
                     "phi-b-distinct": 605, "phi-b-then-a": 560, "a-then-no-b": 23,
                     "some-match": 112}
    assert popped[0] == 0


def _buchi_work(machines, popped, budget, names):
    out = {}
    for name in names:
        before = popped[0]
        kind = nonempty_infinite_incrementing(machines[name], budget).kind
        out[name] = (kind, popped[0] - before)
    return out


def test_buchi_work_at_the_benchmark_budget(infinite_machines, popped):
    # an unknown explores one 200-state stage and spends the refutation's
    # 1000 steps; a-then-no-b's lasso is found and replayed in the stage
    # (212 states before ra2ca took each choice of a whole map in one step)
    work = _buchi_work(infinite_machines, popped, 1000, list(CIRCLE_SENTENCES))
    assert work == {name: ("unknown", 1200) for name in CIRCLE_SENTENCES
                    if name != "a-then-no-b"} | {"a-then-no-b": ("nonempty", 210)}
    assert popped[0] == 7_410


def test_buchi_work_where_a_larger_budget_decides(infinite_machines, popped):
    # 7,722, 9,304 and 1,717 before ra2ca took each choice of a whole map
    # in one step
    work = _buchi_work(infinite_machines, popped, 30_000,
                       ["phi", "phi-Fa-Gnotb", "some-match"])
    assert work == {"phi": ("nonempty", 7_720), "phi-Fa-Gnotb": ("empty", 8_915),
                    "some-match": ("nonempty", 1_715)}
