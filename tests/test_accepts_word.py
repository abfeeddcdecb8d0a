"""Finite-word membership for counter machines against the plain search it
speeds up.

``reference_accepts_word`` steps with the generic ``step_incrementing`` /
``step_minsky``, which compute every enabled transition's valuation, drops
the ones reading another letter afterwards, and keeps an ``Antichain`` keyed
by (position, location).  ``ca.accepts_word`` runs ``ca._search``, which
skips a transition reading another letter before computing its valuation
and keeps one antichain per position; it visits the same states in the same
order, so the two must give the same verdict, ``unknown`` under a budget
included.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from datawords.ca import (
    CounterAutomaton, Verdict, accepts_word, step_incrementing, step_minsky,
)
from datawords.ltl import parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra2ca import build_ca_finite
from datawords.words import Alphabet

from test_finite_nonempty import Antichain
from test_lasso_scan import machines


def reference_accepts_word(c: CounterAutomaton, word, semantics="incrementing",
                           budget=100_000) -> Verdict:
    word = tuple(word)
    step = step_incrementing if semantics == "incrementing" else step_minsky
    start = (0, c.initial, (0,) * c.n_counters, False)
    seen_chain = Antichain()
    seen_exact: set = set()
    explored = 0
    queue = deque([start])
    if semantics == "incrementing":
        seen_chain.add((0, c.initial), (0,) * c.n_counters)
    else:
        seen_exact.add(start)
    while queue:
        pos, q, v, moved = queue.popleft()
        explored += 1
        if explored > budget:
            return Verdict("unknown", reason=f"budget of {budget} states spent")
        if pos == len(word) and moved and q in c.accepting:
            return Verdict("nonempty", witness=word)
        for w, _t, (q2, v2) in step(c, (q, v)):
            if w is not None:
                if pos >= len(word) or word[pos] != w:
                    continue
                pos2 = pos + 1
            else:
                pos2 = pos
            nxt = (pos2, q2, v2, True)
            if semantics == "incrementing":
                if not seen_chain.add((pos2, q2), v2):
                    continue
            else:
                if nxt in seen_exact:
                    continue
                seen_exact.add(nxt)
            queue.append(nxt)
    if semantics == "incrementing":
        return Verdict("empty", reason="search space exhausted")
    return Verdict("empty", reason="exact state space exhausted")


WORDS = st.lists(st.sampled_from(["a", "b"]), max_size=5).map(tuple)
# small budgets end in unknown; Minsky runs of a pumping machine never end
# otherwise, so the largest budget stays modest
BUDGETS = st.sampled_from([1, 2, 5, 20, 200, 2000])


@settings(max_examples=300, deadline=None)
@given(machines(), WORDS, st.sampled_from(["incrementing", "minsky"]), BUDGETS)
def test_accepts_word_equals_reference(c, word, semantics, budget):
    assert repr(accepts_word(c, word, semantics, budget)) == \
        repr(reference_accepts_word(c, word, semantics, budget))


def test_budgets_reach_every_verdict():
    # q0 -a,inc-> q1 (accepting) with a silent pump at q0: "a" is accepted,
    # "b" is not, and the Minsky search of "b" never exhausts its states
    c = CounterAutomaton(Alphabet(("a", "b")), ("q0", "q1"), "q0", 1,
                         (("q0", None, "inc", 1, "q0"), ("q0", "a", "inc", 1, "q1")),
                         frozenset({"q1"}))
    for semantics in ("incrementing", "minsky"):
        for word, budget in ((("a",), 1), (("a",), 100), (("b",), 100), ((), 100)):
            got = accepts_word(c, word, semantics, budget)
            assert repr(got) == repr(reference_accepts_word(c, word, semantics, budget))
    assert accepts_word(c, ("a",), budget=1).kind == "unknown"
    assert accepts_word(c, ("a",)).is_nonempty
    assert accepts_word(c, ("b",)).is_empty
    assert accepts_word(c, ("b",), "minsky", 100).kind == "unknown"


@pytest.fixture(scope="module")
def running_example():
    ab = Alphabet(("a", "b"))
    phi = parse_ltl("G (a -> store1 X ((G (a -> !up1)) & F (b & up1)))", ab)
    return build_ca_finite(ltl_to_ara(phi, ab))


@pytest.mark.parametrize("word", [(), ("a",), ("a", "b"), ("b", "a", "b"),
                                  ("a", "a", "b", "b"), ("a", "b", "a", "b", "b")])
@pytest.mark.parametrize("semantics, budget", [("incrementing", 100_000),
                                               ("incrementing", 50), ("minsky", 300)])
def test_compiled_running_example(running_example, word, semantics, budget):
    assert repr(accepts_word(running_example, word, semantics, budget)) == \
        repr(reference_accepts_word(running_example, word, semantics, budget))
