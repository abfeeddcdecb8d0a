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
budget of 1000 and at a budget of 30,000, which decides three of them,
and at 1000 on a seeded pool of random machines made like the ``buchi``
benchmark's, its work split by the phase that does it.
"""

import itertools
import random
from collections import Counter

import pytest

from datawords import ca
from datawords.ca import (
    CounterAutomaton, accepts_word, nonempty_finite_incrementing,
    nonempty_infinite_incrementing,
)
from datawords.graph import sccs
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
    # an unknown explores the stages of 16 and 200 states and spends the
    # refutation's 1000 steps; a-then-no-b's lasso is found and replayed in
    # the second stage.  1200 and 210 without the 16-state stage (212 before
    # ra2ca took each choice of a whole map in one step)
    work = _buchi_work(infinite_machines, popped, 1000, list(CIRCLE_SENTENCES))
    assert work == {name: ("unknown", 1216) for name in CIRCLE_SENTENCES
                    if name != "a-then-no-b"} | {"a-then-no-b": ("nonempty", 226)}
    assert popped[0] == 7_522


def test_buchi_work_where_a_larger_budget_decides(infinite_machines, popped):
    # each 16 more than without the 16-state stage: 7,720, 8,915 and 1,715;
    # 7,722, 9,304 and 1,717 before ra2ca took each choice of a whole map in
    # one step
    work = _buchi_work(infinite_machines, popped, 30_000,
                       ["phi", "phi-Fa-Gnotb", "some-match"])
    assert work == {"phi": ("nonempty", 7_736), "phi-Fa-Gnotb": ("empty", 8_931),
                    "some-match": ("nonempty", 1_731)}


def random_machine(rng) -> CounterAutomaton:
    """An incrementing machine over {a, b}: 3-5 locations, 1-3 counters,
    4-9 transitions; silent transitions never enter accepting locations."""
    locs = [f"q{i}" for i in range(rng.randint(3, 5))]
    counters = rng.randint(1, 3)
    trans = tuple(
        (rng.choice(locs), rng.choice(["a", "b", None]), rng.choice(["inc", "dec", "ifz"]),
         rng.randint(1, counters), rng.choice(locs))
        for _ in range(rng.randint(4, 9)))
    accepting = {q for q in locs if rng.random() < 0.4} - {t[4] for t in trans if t[1] is None}
    return CounterAutomaton(Alphabet(("a", "b")), tuple(locs), "q0", counters, trans,
                            frozenset(accepting))


def may_loop(c: CounterAutomaton) -> bool:
    """Does the control graph allow a Büchi run: a component reachable from
    the initial location with an accepting location and a lettered
    transition inside?"""
    succ: dict = {q: [] for q in c.locations}
    for t in c.transitions:
        succ[t[0]].append(t[4])
    return any(scc & c.accepting and any(t[1] is not None and t[0] in scc and t[4] in scc
                                         for t in c.transitions)
               for scc in sccs([c.initial], succ))


def random_buchi_pool(seed: int, n: int) -> list:
    """The first ``n`` random machines of ``seed`` that may loop."""
    rng = random.Random(seed)
    pool: list = []
    while len(pool) < n:
        c = random_machine(rng)
        if may_loop(c):
            pool.append(c)
    return pool


@pytest.fixture
def phase_work(monkeypatch):
    """``outgoing`` calls by the phase that makes them: the explorer of the
    witness search, the tree refutation, and the lasso replays of either,
    which ``verify_lasso`` makes; the scan itself calls none."""
    count = Counter()
    phase = ["other"]
    outgoing = CounterAutomaton.outgoing

    def counted(self, q):
        count[phase[-1]] += 1
        return outgoing(self, q)

    monkeypatch.setattr(CounterAutomaton, "outgoing", counted)
    for name, label in (("_explore_min_graph", "explorer"), ("_refutation", "refutation"),
                        ("verify_lasso", "replay")):
        def in_phase(*args, f=getattr(ca, name), label=label):
            phase.append(label)
            try:
                return f(*args)
            finally:
                phase.pop()

        monkeypatch.setattr(ca, name, in_phase)
    return count


def test_buchi_work_on_random_machines(phase_work):
    # per verdict kind, the machines and the outgoing calls of each phase,
    # 416,114 in all; the refutations that run out of the budget make 377,000.
    # Without the 16-state stage the explorer made 156,309 calls on the
    # nonempty machines, 14,400 on the unknown and 3,571 on the empty ones,
    # and the replays 3,498: 555,385 in all
    work: dict = {}
    for c in random_buchi_pool(1, 2000):
        before = Counter(phase_work)
        kind = nonempty_infinite_incrementing(c, 1000).kind
        entry = work.setdefault(kind, Counter())
        entry["machines"] += 1
        entry.update(phase_work - before)
    assert {kind: dict(entry) for kind, entry in work.items()} == {
        "nonempty": {"machines": 1488, "explorer": 15_613, "replay": 3499},
        "unknown": {"machines": 377, "explorer": 15_552, "refutation": 377_000},
        "empty": {"machines": 135, "explorer": 3843, "refutation": 607},
    }
