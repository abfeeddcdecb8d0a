"""The Büchi witness search against the plain per-source scan it speeds up.

``reference_explore`` builds the bounded minimal-error graph over states
whose valuations are tuples, stepping with ``step_incrementing``;
``ca._explore_min_graph`` packs each valuation into one ``int`` and steps
it inline, and must build the same graph in the same order.
``reference_scan`` runs a BFS from every state of the reference graph, in
index order, and returns the first hit whose cycle replays.
``ca._scan_for_lasso`` runs the same searches on the packed graph but skips
the sources that ``ca._lasso_sources`` rules out and the sources outside
``CounterAutomaton._returning``, so the two must return the same lasso on
every machine.  ``_witness_search`` scans stages of growing size; the
stage rule without its first stage of 16 states stays here as
``wide_stage_decider`` and ``wide_stage_minsky``, and both infinite
deciders must give their verdicts.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from datawords import ca
from datawords.ca import (
    CounterAutomaton, Lasso, Verdict, _explore_min_graph, _scan_for_lasso, _witness_search,
    initial_state, leq, nonempty_infinite_incrementing, nonempty_minsky_bounded,
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


def replaying_lassos(c, states, edges, parent):
    """Per source in index order, the lasso of its first hit whose cycle
    replays, if any."""
    for src in range(len(states)):
        for back, key, t in _hits(c, states, edges, src):
            lasso = Lasso(_path(parent, src), _path(back, key) + (t,))
            if verify_lasso(c, lasso):
                yield lasso
                break


def reference_scan(c, states, edges, parent):
    return next(replaying_lassos(c, states, edges, parent), None)


def reference_witness_search(c, *caps):
    """The first lasso of the reference scans of the graphs of ``caps``."""
    for cap in caps:
        lasso = reference_scan(c, *reference_explore(c, cap))
        if lasso is not None:
            return lasso
    return None


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
    edges, and each state's path link spells its reference path; returns
    the reference graph."""
    states, edges, parent, packing = _explore_min_graph(c, cap, exact)
    ref_states, ref_edges, ref_parent = graph = reference_explore(c, cap, exact)
    assert [(q, unpack(packing, v)) for q, v in states] == ref_states
    assert edges == ref_edges
    assert [ca._unlink(link) for link in parent] == \
        [_path(ref_parent, i) for i in range(len(ref_states))]
    return graph


@settings(max_examples=150, deadline=None)
@given(machines(), st.sampled_from([1, 2, 30, 200]), st.booleans())
def test_packed_explorer_equals_reference(c, cap, exact):
    assert_packed_explorer_is_reference(c, cap, exact)


@settings(max_examples=150, deadline=None)
@given(machines(), st.sampled_from([8, 16, 30, 200]))
def test_witness_search_equals_reference(c, budget):
    # up to 200 the stages are 16 states, or the budget if it is smaller,
    # and then the budget
    caps = sorted({min(16, budget), budget})
    assert _witness_search(c, budget) == reference_witness_search(c, *caps)


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


class _Reads(list):
    """Edge lists that record which states' edges are read by index."""

    def __init__(self, edges):
        super().__init__(edges)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("cap", [30, 200])
def test_analysis_rules_out_the_pump_machine(pass_calls, cap):
    # counter 1 only grows, so no cycle returns below its start: the scan
    # searches from no source, and the witness search expands no state
    c = CounterAutomaton(Alphabet(("a",)), ("q0",), "q0", 1,
                         (("q0", "a", "inc", 1, "q0"),), frozenset({"q0"}))
    assert c._returning == frozenset()
    states, edges, parent, packing = _explore_min_graph(c, cap)
    edges = _Reads(edges)
    assert _scan_for_lasso(c, states, edges, parent, packing) is None
    assert edges.reads == []
    assert not pass_calls
    expanded = []
    outgoing = CounterAutomaton.outgoing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CounterAutomaton, "outgoing",
                   lambda self, q: expanded.append(q) or outgoing(self, q))
        assert _witness_search(c, cap) is None
    assert expanded == []
    assert reference_witness_search(c, cap) is None


def returning_without_a_lasso():
    """Counter 1 is decremented on the cycle q1 q2, but q0 is left by
    raising it and entered by a zero test of it, so no cycle through q0
    returns; counter 2 only grows, so the graph fills every cap."""
    return CounterAutomaton(
        Alphabet(("a", "b")), ("q0", "q1", "q2"), "q0", 2,
        (("q0", "a", "inc", 1, "q1"), ("q1", "b", "ifz", 1, "q0"),
         ("q1", "a", "dec", 1, "q2"), ("q2", "a", "inc", 1, "q1"),
         ("q0", "b", "inc", 2, "q0")),
        frozenset({"q0"}))


@pytest.mark.parametrize("cap", [30, 200])
def test_pass_rules_out_a_machine_the_analysis_keeps(pass_calls, cap):
    c = returning_without_a_lasso()
    assert c._returning == {"q0", "q1", "q2"}
    graph = _explore_min_graph(c, cap)
    assert len(graph[0]) == cap
    assert _scan_for_lasso(c, *graph) is None
    assert len(pass_calls) == 1
    assert reference_witness_search(c, cap) is None
    assert _witness_search(c, cap) is None


@pytest.mark.parametrize("cap", [30, 200])
def test_pass_keeps_a_lasso_source_after_the_switch(pass_calls, cap):
    # the pass runs before the source (q1, (1, 0)) is searched from
    c = CounterAutomaton(
        Alphabet(("a", "b")), ("q0", "q1", "q2"), "q0", 2,
        (("q1", "b", "inc", 2, "q2"), ("q2", "b", "inc", 1, "q2"),
         ("q0", "a", "inc", 1, "q2"), ("q2", None, "dec", 2, "q0"),
         ("q2", "b", "dec", 2, "q1")),
        frozenset({"q1"}))
    lasso = _scan_for_lasso(c, *_explore_min_graph(c, cap))
    assert len(pass_calls) == 1
    assert lasso == Lasso((("q0", "a", "inc", 1, "q2"), ("q2", "b", "dec", 2, "q1")),
                          (("q1", "b", "inc", 2, "q2"), ("q2", "b", "dec", 2, "q1")))
    assert lasso == reference_witness_search(c, cap)


@settings(max_examples=100, deadline=None)
@given(machines(), st.sampled_from([30, 200, 1000]))
def test_every_replaying_source_is_returning(c, cap):
    for lasso in replaying_lassos(c, *reference_explore(c, cap)):
        assert lasso.cycle[0][0] in c._returning


def reference_decider(c, budget):
    """``nonempty_infinite_incrementing`` with ``_scan_for_lasso`` replaced
    by the plain scan of every source, on the unpacked graph."""
    def scan(c, states, edges, parent, packing):
        # the explorer's cap, so the explorer's graph
        return reference_scan(c, *reference_explore(c, len(states)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ca, "_scan_for_lasso", scan)
        return nonempty_infinite_incrementing(c, budget)


@settings(max_examples=100, deadline=None)
@given(machines(), st.sampled_from([30, 200, 1000]))
def test_decider_equals_the_plain_scan(c, budget):
    assert repr(nonempty_infinite_incrementing(c, budget)) == repr(reference_decider(c, budget))


# The stage rule without the first stage of 16 states: the stages of 200,
# 1500 and 6000 states within the budget, or the budget alone below 200.
# Each stage's graph is the subgraph induced by the first states of the
# next one's, so adding a smaller first stage may change the lasso found
# but never the verdict.
WIDE_STAGES = (200, 1500, 6000)


def wide_stage_decider(c, budget):
    """``nonempty_infinite_incrementing`` with the wide stage rule."""
    if c._returning:
        for cap in [cap for cap in WIDE_STAGES if cap <= budget] or [budget]:
            states, edges, parent, packing = _explore_min_graph(c, cap)
            lasso = _scan_for_lasso(c, states, edges, parent, packing)
            if lasso is not None:
                return Verdict("nonempty", lasso=lasso)
            if len(states) < cap:
                break
    return ca._refutation(c, budget)


def wide_stage_minsky(c, budget):
    """``nonempty_minsky_bounded(c, "infinite", budget)`` with the wide
    stages below the budget, then the budget."""
    for cap in [cap for cap in WIDE_STAGES if cap < budget] + [budget]:
        states, edges, parent, _ = _explore_min_graph(c, cap, exact=True)
        lasso = ca._exact_lasso(c, states, edges, parent)
        if lasso is not None:
            return Verdict("nonempty", lasso=lasso)
        if len(states) < cap:
            return Verdict("empty", reason="exact state space exhausted")
    return Verdict("unknown", reason=f"budget of {budget} states spent")


def assert_same_verdicts(c, v, ref):
    """The same kind, the same verdict unless nonempty, and every lasso
    replays."""
    assert v.kind == ref.kind
    if v.is_nonempty:
        assert verify_lasso(c, v.lasso) and verify_lasso(c, ref.lasso)
    else:
        assert v == ref


@settings(max_examples=150, deadline=None)
@given(machines(), st.sampled_from([8, 16, 17, 30, 200, 1000]))
def test_stages_keep_the_verdicts(c, budget):
    assert_same_verdicts(c, nonempty_infinite_incrementing(c, budget),
                         wide_stage_decider(c, budget))
    assert_same_verdicts(c, nonempty_minsky_bounded(c, "infinite", budget),
                         wide_stage_minsky(c, budget))


@pytest.fixture
def stage_caps(monkeypatch):
    """The caps of the graphs the witness searches explore."""
    caps = []
    explore = ca._explore_min_graph
    monkeypatch.setattr(ca, "_explore_min_graph",
                        lambda c, cap, *rest: caps.append(cap) or explore(c, cap, *rest))
    return caps


@pytest.mark.parametrize("budget, stages", [
    (8, [8]), (16, [16]), (17, [16, 17]), (30, [16, 30]), (200, [16, 200]),
    (1000, [16, 200]), (1500, [16, 200, 1500]), (100_000, [16, 200, 1500, 6000])])
def test_stage_rule(stage_caps, budget, stages):
    # no stage finds a lasso or holds the whole graph, so every stage runs
    c = returning_without_a_lasso()
    assert _witness_search(c, budget) is None
    assert stage_caps == stages


def test_a_lasso_beyond_the_first_stage_is_found_at_200(stage_caps):
    # a climb of 20 rungs up counter 1, then counter 1 grows on a and
    # counter 2 is decremented at zero on b at the accepting top r20: the
    # only lasso's cycle starts at r20, first reached at state 20, outside
    # the 16-state graph, which the climb fills
    rungs = [f"r{i}" for i in range(21)]
    c = CounterAutomaton(
        Alphabet(("a", "b")), tuple(rungs), "r0", 2,
        tuple((q, "a", "inc", 1, q2) for q, q2 in zip(rungs, rungs[1:]))
        + (("r20", "a", "inc", 1, "r20"), ("r20", "b", "dec", 2, "r20")),
        frozenset({"r20"}))
    assert c._returning == {"r20"}
    v = nonempty_infinite_incrementing(c, 1000)
    assert stage_caps == [16, 200]
    assert v.lasso == Lasso(c.transitions[:20], (("r20", "b", "dec", 2, "r20"),))
    assert verify_lasso(c, v.lasso)
    assert v == wide_stage_decider(c, 1000)
