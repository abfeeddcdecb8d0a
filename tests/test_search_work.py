"""Deterministic work counters of the finite-word search, pinned.

Counters do not drift with machine noise, so a change in them is a real
change in the work the search does.  ``ca._search`` calls
``CounterAutomaton.outgoing`` once per state it takes off the queue, so
wrapping that method counts those states.  The workload is the ``circle``
benchmark's: the finite machines of its seven structured sentences over
``a, b``, each asked every letter word up to the sentence's horizon, and
their finite-word nonemptiness with its witness replay.
"""

import itertools

import pytest

from datawords.ca import CounterAutomaton, accepts_word, nonempty_finite_incrementing
from datawords.ltl import parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra2ca import build_ca_finite
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
    # 17,025 before the cores of ra2ca shared their tails, 21,259 before the
    # guide's last-letter bits, 51,428 without the guide
    assert popped[0] == 13_787


def test_nonempty_finite_work(finite_machines, popped):
    kinds = {name: nonempty_finite_incrementing(c).kind
             for name, c in finite_machines.items()}
    assert sorted(name for name, kind in kinds.items() if kind == "nonempty") == \
        ["a-then-no-b", "phi", "some-match"]
    # the witness replays are word searches: 108 before the cores of ra2ca
    # shared their tails, 118 before the guide's last-letter bits, 5,348
    # without the guide
    assert popped[0] == 102
