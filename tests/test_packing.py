"""Packed valuations at the edges of their fields.

The search engines of ``ca`` hold a valuation as one ``int`` (``ca._packing``):
counter k in a field of ``budget.bit_length() + 2`` bits, its value bits
under a guard bit.  The width rests on the lemma that no engine holds a
value above budget + 1.  The budgets below put that bound at the top of the
value bits (budget + 1 a power of two) and just under it.

The layout test puts every counter of two or three at the lemma's bound and
checks stepping, zero tests and domination against tuples of counters.  The
engine tests run ``climb`` machines, which drive one counter up by one per
step along a chain of distinct locations, as far as each engine goes at the
budget, and then test it and its neighbour at the top, so that a value out
of its field would change what the engine does next.  Each engine is
compared with its reference on tuples.  At a budget of at least 1 an engine
expands at most budget states, so it holds at most budget, one below the
lemma's bound: only the layout test reaches that bound.
"""

import itertools

import pytest

from datawords.ca import (
    CounterAutomaton, _explore_min_graph, _packing, _refutation, _scan_for_lasso,
    accepts_word, leq, nonempty_finite_incrementing, nonempty_minsky_bounded,
)
from datawords.words import Alphabet

from test_accepts_word import reference_guide, reference_search
from test_lasso_scan import assert_packed_explorer_is_reference, reference_scan, unpack
from test_refutation import reference_refutation

BUDGETS = [1, 2, 3, 4, 7, 8, 15, 16, 1023, 1024]


def pack(packing, values) -> int:
    return sum(x * one for x, one in zip(values, packing[0][1:]))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n", [2, 3])
def test_layout_holds_the_lemma_bound(budget, n):
    ones, masks, guard = packing = _packing(n, budget)
    top = budget + 1
    valuations = list(itertools.product((0, 1, top - 1, top), repeat=n))
    packed = [pack(packing, u) for u in valuations]
    for u, v in zip(valuations, packed):
        assert unpack(packing, v) == u and not v & guard
        for k in range(n):
            assert bool(v & masks[k + 1]) == bool(u[k])
            if u[k] < top:
                assert unpack(packing, v + ones[k + 1]) == u[:k] + (u[k] + 1,) + u[k + 1:]
            if u[k]:
                assert unpack(packing, v - ones[k + 1]) == u[:k] + (u[k] - 1,) + u[k + 1:]
    for a, u in zip(packed, valuations):
        for b, u2 in zip(packed, valuations):
            assert (((b | guard) - a) & guard == guard) == leq(u, u2)


def climb(n, k, rungs, accepting_top):
    """Rungs r0..r{rungs}, each one step up counter k on letter a.  At the
    top: a step up k (dominated by the top itself), a decrement of the
    neighbouring counter (a no-op at zero, blocked in exact runs), and a
    zero test of k into the accepting ``hit``, which has no transitions."""
    j = k + 1 if k < n else k - 1
    locs = [f"r{i}" for i in range(rungs + 1)]
    top = locs[-1]
    trans = [(q, "a", "inc", k, q2) for q, q2 in zip(locs, locs[1:])]
    trans += [(top, "a", "inc", k, top), (top, "b", "dec", j, top),
              (top, "b", "ifz", k, "hit")]
    accepting = {"hit", top} if accepting_top else {"hit"}
    return CounterAutomaton(Alphabet(("a", "b")), tuple(locs) + ("hit",), "r0", n,
                            tuple(trans), frozenset(accepting))


def climbs(budget):
    """Every climb whose top sits where an engine at ``budget`` holds its
    largest values (budget - 2 to budget rungs), with its shape: climbs of
    one shape share their control graph, so their search guide."""
    for rungs in sorted({max(budget - d, 0) for d in (0, 1, 2)}):
        for accepting_top in (False, True):
            for n in (2, 3):
                for k in range(1, n + 1):
                    yield (rungs, accepting_top), climb(n, k, rungs, accepting_top)


@pytest.mark.parametrize("budget", BUDGETS)
def test_refutation_at_the_field_boundary(budget):
    for _, c in climbs(budget):
        assert repr(_refutation(c, budget)) == repr(reference_refutation(c, budget))


@pytest.mark.parametrize("budget", BUDGETS)
def test_finite_deciders_at_the_field_boundary(budget):
    guides: dict = {}
    for shape, c in climbs(budget):
        guide = guides.get(shape) or guides.setdefault(shape, reference_guide(c))
        word = ("a",) * shape[0] + ("b",)
        for semantics in ("incrementing", "minsky"):
            assert repr(accepts_word(c, word, semantics, budget)) == \
                repr(reference_search(c, word, semantics, budget, guide))
        assert repr(nonempty_finite_incrementing(c, budget)) == \
            repr(reference_search(c, None, "incrementing", budget, guide))
        assert repr(nonempty_minsky_bounded(c, "finite", budget)) == \
            repr(reference_search(c, None, "minsky", budget, guide))


@pytest.mark.parametrize("budget", BUDGETS)
def test_witness_search_at_the_field_boundary(budget):
    # the explorer takes up to the budget's states in the last stage of
    # nonempty_minsky_bounded, and of _witness_search below 200; the scan of
    # one stage's graph is checked on the graph itself, where the reference,
    # which searches from every state, stays small
    for _, c in climbs(budget):
        assert_packed_explorer_is_reference(c, budget, exact=True)
        graph = assert_packed_explorer_is_reference(c, budget)
        if budget <= 200:
            assert _scan_for_lasso(c, *_explore_min_graph(c, budget)) == \
                reference_scan(c, *graph)
