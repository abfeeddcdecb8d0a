"""Finite-word nonemptiness of counter machines against the plain search that
``ca._search`` replaced.

``reference_nonempty_finite`` is a forward minimal-error search with one
``Antichain`` per location that copies the word read so far into each queue
entry and accepts an accepting successor as soon as it is generated.
``ca.nonempty_finite_incrementing`` runs the shared breadth-first search and
accepts a state when it is taken off the queue; at the default budget both
give the same verdict and the same witness.
"""

from collections import deque

import pytest
from hypothesis import given, settings

from datawords.ca import (
    CounterAutomaton, Verdict, accepts_word, initial_state, leq,
    nonempty_finite_incrementing, nonempty_minsky_bounded, step_incrementing,
)
from datawords.words import Alphabet

from test_lasso_scan import machines


class Antichain:
    """Per-location store of minimal valuations."""

    def __init__(self):
        self._data: dict = {}

    def add(self, q, v: tuple) -> bool:
        """Insert unless dominated; drops dominated entries.  True if kept."""
        vs = self._data.setdefault(q, [])
        for u in vs:
            if leq(u, v):
                return False
        vs[:] = [u for u in vs if not leq(v, u)]
        vs.append(v)
        return True

    def __len__(self):
        return sum(len(vs) for vs in self._data.values())


def reference_nonempty_finite(c: CounterAutomaton, budget: int = 1_000_000) -> Verdict:
    store = Antichain()
    start = initial_state(c)
    queue = deque([(start, ())])
    store.add(start[0], start[1])
    explored = 0
    while queue:
        (q, v), word = queue.popleft()
        explored += 1
        if explored > budget:
            return Verdict("unknown", reason=f"budget of {budget} states spent")
        for w, _t, (q2, v2) in step_incrementing(c, (q, v)):
            word2 = word + (w,) if w is not None else word
            if q2 in c.accepting:
                assert accepts_word(c, word2, "incrementing").is_nonempty
                return Verdict("nonempty", witness=word2)
            if store.add(q2, v2):
                queue.append(((q2, v2), word2))
    return Verdict("empty", reason="antichain exploration exhausted")


def test_antichain():
    ac = Antichain()
    assert ac.add("q", (1, 1))
    assert not ac.add("q", (2, 1))
    assert ac.add("q", (0, 2))
    assert ac.add("q", (1, 0))
    assert len(ac) == 2  # (1,0) evicts (1,1)


@settings(max_examples=300, deadline=None)
@given(machines())
def test_nonempty_finite_equals_reference(c):
    assert repr(nonempty_finite_incrementing(c)) == repr(reference_nonempty_finite(c))


def test_lettered_return_to_accepting_start():
    # the start state (q0, 0) would dominate (q0, 1) in one antichain per
    # location; the state reached by a letter must still be accepted
    c = CounterAutomaton(Alphabet(("a",)), ("q0",), "q0", 1,
                         (("q0", "a", "inc", 1, "q0"),), frozenset({"q0"}))
    assert nonempty_finite_incrementing(c) == Verdict("nonempty", witness=("a",))
    assert reference_nonempty_finite(c) == Verdict("nonempty", witness=("a",))
    assert nonempty_minsky_bounded(c, "finite") == Verdict("nonempty", witness=("a",))


@pytest.mark.parametrize("budget", [1, 3, 10])
@settings(max_examples=100, deadline=None)
@given(machines())
def test_small_budgets_never_flip_a_verdict(budget, c):
    # a budget now counts the accepting state taken off the queue as well,
    # so a definite verdict may become unknown, but never the opposite one
    got = nonempty_finite_incrementing(c, budget).kind
    want = reference_nonempty_finite(c, budget).kind
    assert got == want or "unknown" in (got, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(machines())
def test_finite_witness_carries_its_run(c):
    """The run of a nonempty verdict goes from the initial location to an
    accepting one, each transition from where the last one ended, and reads
    the witness."""
    for v in (nonempty_finite_incrementing(c), nonempty_minsky_bounded(c, "finite")):
        if v.is_nonempty:
            run = v.run
            assert run[0][0] == c.initial and run[-1][4] in c.accepting
            assert all(t[4] == u[0] for t, u in zip(run, run[1:]))
            assert tuple(t[1] for t in run if t[1] is not None) == v.witness
