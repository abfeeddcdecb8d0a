"""Finite-word membership and nonemptiness for counter machines against the
plain search they speed up.

``reference_search`` steps tuples of counters with the generic
``step_incrementing`` / ``step_minsky``, which compute every enabled
transition's valuation, drops the ones reading another letter afterwards,
and keeps an ``Antichain`` keyed by (position, location).  ``ca._search``
steps valuations packed into one ``int``, skips a transition reading another
letter before computing its valuation and keeps one antichain per position.
Both drop a successor at a location that the counter-free control graph
rules out, the reference by a guide it computes here one graph search per
location.  They visit the same states in the same order, so they must give
the same verdict, ``unknown`` under a budget included.  Without its guide
the reference visits more states, so at default budgets it must give the
same verdicts and witnesses, and under a budget it may give ``unknown``
where the guided search decides, never the other way round.
"""

from collections import deque
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from datawords.ca import (
    CounterAutomaton, Verdict, accepts_word, nonempty_finite_incrementing,
    nonempty_minsky_bounded, step_incrementing,
)
from datawords.ltl import parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra2ca import build_ca_finite
from datawords.words import Alphabet

from test_finite_nonempty import Antichain
from test_lasso_scan import machines
from test_ca import step_minsky
from test_ra2ca import AB, CIRCLE_SENTENCES

ACCEPT = None  # the guide's mark for silent steps into an accepting location


def LAST(w):
    """The guide's mark for reading ``w`` as the word's last letter."""
    return ("last", w)


def reference_guide(c: CounterAutomaton) -> dict:
    """For each location with a path into an accepting location: the
    letters it reads, after silent steps only, on a transition into such a
    location, plus ACCEPT if silent steps alone lead it into an accepting
    location (it counts itself), plus LAST(w) for each letter w it reads,
    after silent steps only, on a transition into a location from which
    silent steps alone lead into an accepting location."""
    succ: dict = {q: [] for q in c.locations}
    for t in c.transitions:
        succ[t[0]].append(t)

    def reach(q, silent_only) -> set:
        seen, stack = {q}, [q]
        while stack:
            for _q, w, _op, _ctr, q2 in succ[stack.pop()]:
                if (w is None or not silent_only) and q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
        return seen

    live = {q for q in c.locations if reach(q, False) & c.accepting}
    ends = {q for q in c.locations if reach(q, True) & c.accepting}
    guide = {}
    for q in live:
        closure = reach(q, True)
        guide[q] = {w for src, w, _op, _ctr, q2 in c.transitions
                    if src in closure and w is not None and q2 in live}
        guide[q] |= {LAST(w) for src, w, _op, _ctr, q2 in c.transitions
                     if src in closure and w is not None and q2 in ends}
        if closure & c.accepting:
            guide[q].add(ACCEPT)
    return guide


def guide_bits(c: CounterAutomaton, guide: dict) -> dict:
    """``reference_guide``'s marks as the bits of ``c._guide``: 1 for
    ACCEPT, ``2 << k`` for the k-th letter, and its LAST shifted left by
    the size of the alphabet."""
    n = len(c.alphabet.letters)
    bit = {ACCEPT: 1}
    for k, w in enumerate(c.alphabet.letters):
        bit[w] = 2 << k
        bit[LAST(w)] = 2 << k << n
    return {q: sum(bit[m] for m in marks) for q, marks in guide.items()}


def _kept(guide, word, pos2, q2) -> bool:
    """Can a run at ``q2``, having read ``pos2`` letters of ``word``, still
    accept as far as the guide knows?  Before the last letter it must be
    able to read that letter and then accept by silent steps alone."""
    if q2 not in guide:
        return False
    if word is None:
        return True
    if pos2 == len(word):
        return ACCEPT in guide[q2]
    return (LAST(word[pos2]) if pos2 == len(word) - 1 else word[pos2]) in guide[q2]


def reference_search(c: CounterAutomaton, word, semantics, budget,
                     guide: Optional[dict]) -> Verdict:
    """``accepts_word``; with ``word=None`` the finite-word nonemptiness
    search, any letters read, whose witness is the letters its run read.
    A successor the guide rules out is dropped; ``guide=None`` keeps all."""
    free = word is None
    word = None if free else tuple(word)
    step = step_incrementing if semantics == "incrementing" else step_minsky
    zero = (0,) * c.n_counters
    seen_chain = Antichain()
    seen_chain.add((0, c.initial), zero)
    seen_exact = {(0, c.initial, zero, False)}
    explored = 0
    queue = deque([(0, c.initial, zero, False, ())])
    while queue:
        pos, q, v, moved, read = queue.popleft()
        explored += 1
        if explored > budget:
            return Verdict("unknown", reason=f"budget of {budget} states spent")
        if (free or pos == len(word)) and moved and q in c.accepting:
            return Verdict("nonempty", witness=read)
        for w, _t, (q2, v2) in step(c, (q, v)):
            if w is None:
                pos2 = pos
            elif free:
                pos2 = 1
            elif pos < len(word) and word[pos] == w:
                pos2 = pos + 1
            else:
                continue
            if guide is not None and not _kept(guide, word, pos2, q2):
                continue
            nxt = (pos2, q2, v2, True)
            if semantics == "incrementing":
                if not seen_chain.add((pos2, q2), v2):
                    continue
            else:
                if nxt in seen_exact:
                    continue
                seen_exact.add(nxt)
            queue.append((*nxt, read if w is None else read + (w,)))
    if semantics == "minsky":
        return Verdict("empty", reason="exact state space exhausted")
    if free:
        return Verdict("empty", reason="antichain exploration exhausted")
    return Verdict("empty", reason="search space exhausted")


WORDS = st.lists(st.sampled_from(["a", "b"]), max_size=5).map(tuple)
# small budgets end in unknown; Minsky runs of a pumping machine never end
# otherwise, so the largest budget stays modest
BUDGETS = st.sampled_from([1, 2, 5, 20, 200, 2000])


SEMANTICS = st.sampled_from(["incrementing", "minsky"])


@settings(max_examples=300, deadline=None)
@given(machines())
def test_guide_is_reference_guide(c):
    assert c._guide == guide_bits(c, reference_guide(c))


@pytest.mark.parametrize("name", list(CIRCLE_SENTENCES))
def test_compiled_guide_is_reference_guide(name):
    c = build_ca_finite(ltl_to_ara(parse_ltl(CIRCLE_SENTENCES[name], AB), AB))
    assert c._guide == guide_bits(c, reference_guide(c))


@settings(max_examples=300, deadline=None)
@given(machines(), WORDS, SEMANTICS, BUDGETS)
def test_accepts_word_equals_reference(c, word, semantics, budget):
    assert repr(accepts_word(c, word, semantics, budget)) == \
        repr(reference_search(c, word, semantics, budget, reference_guide(c)))


@settings(max_examples=300, deadline=None)
@given(machines(), BUDGETS)
def test_finite_nonemptiness_equals_reference(c, budget):
    guide = reference_guide(c)
    assert repr(nonempty_finite_incrementing(c, budget)) == \
        repr(reference_search(c, None, "incrementing", budget, guide))
    assert repr(nonempty_minsky_bounded(c, "finite", budget)) == \
        repr(reference_search(c, None, "minsky", budget, guide))


def _same_answer(got: Verdict, want: Verdict) -> bool:
    return (got.kind, got.witness) == (want.kind, want.witness)


@settings(max_examples=300, deadline=None)
@given(machines(), WORDS, SEMANTICS, st.integers(1, 2000))
def test_guide_keeps_verdicts_and_witnesses(c, word, semantics, budget):
    # at default budgets (which Minsky runs of a pumping machine never
    # exhaust, so those take the drawn budget): the same answers
    assert _same_answer(accepts_word(c, word),
                        reference_search(c, word, "incrementing", 100_000, None))
    assert _same_answer(nonempty_finite_incrementing(c),
                        reference_search(c, None, "incrementing", 1_000_000, None))
    # under a budget the guided search spends less of it: an unknown may
    # become decided, a decided answer stays as it is
    for got, want in (
            (accepts_word(c, word, semantics, budget),
             reference_search(c, word, semantics, budget, None)),
            (nonempty_finite_incrementing(c, budget),
             reference_search(c, None, "incrementing", budget, None)),
            (nonempty_minsky_bounded(c, "finite", budget),
             reference_search(c, None, "minsky", budget, None))):
        assert want.kind == "unknown" or _same_answer(got, want)


def test_budgets_reach_every_verdict():
    # q0 -a,inc 1-> q1 and q0 -b,dec 2-> q1 (accepting), with a silent pump
    # at q0: the control graph lets both letters reach q1, so only the
    # counters can block a run.  A Minsky run cannot decrement counter 2,
    # which nothing raises, and its search of "b" pumps counter 1 until the
    # budget is spent; an incrementing run may, and accepts "b".
    c = CounterAutomaton(Alphabet(("a", "b")), ("q0", "q1"), "q0", 2,
                         (("q0", None, "inc", 1, "q0"), ("q0", "a", "inc", 1, "q1"),
                          ("q0", "b", "dec", 2, "q1")),
                         frozenset({"q1"}))
    guide = reference_guide(c)
    assert guide == {"q0": {"a", "b", LAST("a"), LAST("b")}, "q1": {ACCEPT}}
    for semantics in ("incrementing", "minsky"):
        for word, budget in ((("a",), 1), (("a",), 100), (("b",), 100), ((), 100),
                             (("a", "b"), 100)):
            got = accepts_word(c, word, semantics, budget)
            assert repr(got) == repr(reference_search(c, word, semantics, budget, guide))
    assert accepts_word(c, ("a",), budget=1).kind == "unknown"
    assert accepts_word(c, ("a",)).is_nonempty
    assert accepts_word(c, ("b",)).is_nonempty
    assert accepts_word(c, ("a", "b")).is_empty
    assert accepts_word(c, ("b",), "minsky", 100).kind == "unknown"


@pytest.fixture(scope="module")
def running_example():
    ab = Alphabet(("a", "b"))
    phi = parse_ltl("G (a -> store1 X ((G (a -> !up1)) & F (b & up1)))", ab)
    c = build_ca_finite(ltl_to_ara(phi, ab))
    return c, reference_guide(c)


@pytest.mark.parametrize("word", [(), ("a",), ("a", "b"), ("b", "a", "b"),
                                  ("a", "a", "b", "b"), ("a", "b", "a", "b", "b")])
@pytest.mark.parametrize("semantics, budget", [("incrementing", 100_000),
                                               ("incrementing", 50), ("minsky", 300)])
def test_compiled_running_example(running_example, word, semantics, budget):
    c, guide = running_example
    assert repr(accepts_word(c, word, semantics, budget)) == \
        repr(reference_search(c, word, semantics, budget, guide))
