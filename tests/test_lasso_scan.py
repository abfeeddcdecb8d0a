"""The Büchi witness search against the plain per-source scan it speeds up.

``reference_explore`` builds the bounded minimal-error graph over states
whose valuations are tuples, stepping with ``step_incrementing``;
``ca._explore_min_graph`` packs each valuation into one ``int`` and steps
it inline, and must build the same graph in the same order.
``reference_scan`` runs a BFS from every state of the reference graph, in
index order, and returns the first hit whose cycle replays.
``ca._scan_for_lasso`` runs the same searches on the packed graph but skips
the sources that ``ca._lasso_sources`` rules out, so the two must return
the same lasso on every machine.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from datawords import ca
from datawords.ca import (
    CounterAutomaton, Lasso, _explore_min_graph, _witness_search, initial_state, leq,
    step_incrementing, verify_lasso,
)
from datawords.words import Alphabet


def reference_explore(c: CounterAutomaton, budget: int, exact: bool = False):
    """Bounded BFS of the minimal-error graph (the exact one with
    ``exact``): (states, edges, parent), with ``edges[i] = [(t, j), ...]``
    and ``parent[i] = (j, t)`` (None at the start) over state indices.
    Successors beyond the budget are dropped."""
    start = initial_state(c)
    states = [start]
    index = {start: 0}
    edges: list = []
    parent: list = [None]
    for k, st in enumerate(states):  # grows while it is walked: a BFS queue
        out = []
        for w, t, nxt in step_incrementing(c, st, exact):
            j = index.get(nxt)
            if j is None:
                if len(states) >= budget:
                    continue
                j = index[nxt] = len(states)
                states.append(nxt)
                parent.append((k, t))
            out.append((t, j))
        edges.append(out)
    return states, edges, parent


def unpack(packing, v) -> tuple:
    """The counters of a valuation packed by ``packing``."""
    ones, masks, _guard = packing
    return tuple((v & m) // one for one, m in zip(ones[1:], masks[1:]))


def _path(back, key) -> tuple:
    out = []
    while back[key] is not None:
        key, t = back[key]
        out.append(t)
    return tuple(reversed(out))


def _hits(c, states, edges, src):
    """The BFS from ``src`` over (state, seen an accepting state) pairs:
    yields (back-pointers, pair, transition) for every edge that reaches a
    state at the source's location, at or below its valuation, having seen
    an accepting state.  A hit may return to the start pair itself."""
    q, v = states[src]
    start = (src, q in c.accepting)
    back: dict = {start: None}
    queue = deque([start])
    while queue:
        idx, acc = queue.popleft()
        for t, j in edges[idx]:
            q2, v2 = states[j]
            nacc = acc or q2 in c.accepting
            if nacc and q2 == q and leq(v2, v):
                yield back, (idx, acc), t
            key = (j, nacc)
            if key in back:
                continue
            back[key] = ((idx, acc), t)
            queue.append(key)


def reference_scan(c, states, edges, parent):
    for src in range(len(states)):
        for back, key, t in _hits(c, states, edges, src):
            lasso = Lasso(_path(parent, src), _path(back, key) + (t,))
            if verify_lasso(c, lasso):
                return lasso
    return None


def reference_witness_search(c, cap):
    return reference_scan(c, *reference_explore(c, cap))


@st.composite
def machines(draw):
    """3-5 locations, 1-3 counters, 4-9 transitions; silent transitions
    never enter accepting locations."""
    locs = [f"q{i}" for i in range(draw(st.integers(3, 5)))]
    counters = draw(st.integers(1, 3))
    loc = st.sampled_from(locs)
    trans = draw(st.lists(
        st.tuples(loc, st.sampled_from(["a", "b", None]),
                  st.sampled_from(["inc", "dec", "ifz"]), st.integers(1, counters), loc),
        min_size=4, max_size=9))
    accepting = draw(st.sets(loc)) - {t[4] for t in trans if t[1] is None}
    return CounterAutomaton(Alphabet(("a", "b")), tuple(locs), "q0", counters,
                            tuple(trans), frozenset(accepting))


def assert_packed_explorer_is_reference(c, cap, exact=False):
    """The packed graph's states unpack to the reference's, with the same
    edges and parents; returns the reference graph."""
    states, edges, parent, packing = _explore_min_graph(c, cap, exact)
    ref_states, ref_edges, ref_parent = graph = reference_explore(c, cap, exact)
    assert [(q, unpack(packing, v)) for q, v in states] == ref_states
    assert (edges, parent) == (ref_edges, ref_parent)
    return graph


@settings(max_examples=150, deadline=None)
@given(machines(), st.sampled_from([1, 2, 30, 200]), st.booleans())
def test_packed_explorer_equals_reference(c, cap, exact):
    assert_packed_explorer_is_reference(c, cap, exact)


@settings(max_examples=150, deadline=None)
@given(machines(), st.sampled_from([30, 200]))
def test_witness_search_equals_reference(c, cap):
    assert _witness_search(c, cap) == reference_witness_search(c, cap)


def _assert_sources_have_hits(c, cap):
    states, edges, _, packing = _explore_min_graph(c, cap)
    accepting = [q in c.accepting for q, _ in states]
    ref_states, ref_edges, _ = reference_explore(c, cap)
    assert ca._lasso_sources(states, edges, accepting, packing) == [
        any(True for _ in _hits(c, ref_states, ref_edges, src))
        for src in range(len(ref_states))]


@settings(max_examples=150, deadline=None)
@given(machines())
def test_lasso_sources_are_the_sources_with_a_hit(c):
    _assert_sources_have_hits(c, 30)


def test_lasso_sources_through_an_accepting_state_off_any_cycle():
    # on the capped graph, some hits see their only accepting state on a
    # state that lies on no cycle
    c = CounterAutomaton(
        Alphabet(("a", "b")), ("q0", "q1", "q2"), "q0", 1,
        (("q1", None, "inc", 1, "q0"), ("q0", "b", "dec", 1, "q2"),
         ("q1", "a", "ifz", 1, "q1"), ("q0", None, "inc", 1, "q1"),
         ("q2", "a", "dec", 1, "q1"), ("q0", "a", "dec", 1, "q1")),
        frozenset({"q2"}))
    _assert_sources_have_hits(c, 30)


@pytest.fixture
def pass_calls(monkeypatch):
    calls = []
    original = ca._lasso_sources

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ca, "_lasso_sources", spy)
    return calls


@pytest.mark.parametrize("cap", [30, 200])
def test_pass_rules_out_the_pump_machine(pass_calls, cap):
    # counter 1 only grows, so no state ever returns below itself
    c = CounterAutomaton(Alphabet(("a",)), ("q0",), "q0", 1,
                         (("q0", "a", "inc", 1, "q0"),), frozenset({"q0"}))
    assert _witness_search(c, cap) is None
    assert len(pass_calls) == 1
    assert reference_witness_search(c, cap) is None


@pytest.mark.parametrize("cap", [30, 200])
def test_pass_keeps_a_lasso_source_after_the_switch(pass_calls, cap):
    # the pass runs before the source (q1, (1, 0)) is searched from
    c = CounterAutomaton(
        Alphabet(("a", "b")), ("q0", "q1", "q2"), "q0", 2,
        (("q1", "b", "inc", 2, "q2"), ("q2", "b", "inc", 1, "q2"),
         ("q0", "a", "inc", 1, "q2"), ("q2", None, "dec", 2, "q0"),
         ("q2", "b", "dec", 2, "q1")),
        frozenset({"q1"}))
    lasso = _witness_search(c, cap)
    assert len(pass_calls) == 1
    assert lasso == Lasso((("q0", "a", "inc", 1, "q2"), ("q2", "b", "dec", 2, "q1")),
                          (("q1", "b", "inc", 2, "q2"), ("q2", "b", "dec", 2, "q1")))
    assert lasso == reference_witness_search(c, cap)
