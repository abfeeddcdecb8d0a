"""The Büchi tree refutation against the plain version it speeds up.

``reference_refutation`` copies the whole path from the start to every new
root, copies the branch's ancestors and its path on every push, and tests
every ancestor for domination.  ``ca._refutation`` keeps its trees and spawn
graph in flat lists of ints (a node's parent and the transition into it; a
root's first spawn edge; an edge's target root, leaf node and transition),
rebuilds only the lasso's paths from them, keeps the branch once and the
branch's valuations per location.  It visits the same states in the same
order, so the two must give the same verdict and lasso.
"""

from collections import deque
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from datawords.ca import (
    EMPTY, CounterAutomaton, Lasso, Verdict, _refutation, initial_state, leq,
    step_incrementing, verify_lasso,
)
from datawords.ltl import And, parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra2ca import build_ca_infinite
from datawords.words import Alphabet

from test_lasso_scan import machines
from test_search_work import random_buchi_pool


def reference_refutation(c: CounterAutomaton, budget: int):
    start = initial_state(c)
    root_paths = {start: ()}
    pending = deque([start])
    spawn_edges: dict = {}
    steps = 0
    while pending:
        root = pending.popleft()
        spawn_edges.setdefault(root, [])
        # (state, path-from-root, ancestors on branch)
        stack = [(root, (), [root])]
        while stack:
            steps += 1
            if steps > budget:
                return Verdict("unknown",
                               reason=f"refutation budget of {budget} spent")
            st_, path, anc = stack.pop()
            for w, t, nxt in step_incrementing(c, st_):
                path2 = path + (t,)
                if nxt[0] in c.accepting:
                    spawn_edges[root].append((nxt, path2))
                    if nxt in root_paths:
                        # a previously seen root reached again
                        continue
                    root_paths[nxt] = root_paths[root] + path2
                    pending.append(nxt)
                    continue
                q2, v2 = nxt
                if any(a[0] == q2 and leq(a[1], v2) for a in anc):
                    continue
                stack.append((nxt, path2, anc + [nxt]))
    # terminated: emptiness unless the spawn graph has a reachable cycle
    color: dict = {}

    def on_cycle(root) -> Optional[list]:
        stack2 = [(root, iter(spawn_edges.get(root, ())))]
        path_stack = [root]
        onpath = {root}
        while stack2:
            node, it = stack2[-1]
            for (child, cpath) in it:
                if child in onpath:
                    return path_stack[path_stack.index(child):] + [child]
                if child not in color:
                    color[child] = 1
                    stack2.append((child, iter(spawn_edges.get(child, ()))))
                    path_stack.append(child)
                    onpath.add(child)
                    break
            else:
                stack2.pop()
                onpath.discard(path_stack.pop())
                continue
        return None

    cyc_nodes = on_cycle(start)
    if cyc_nodes is None:
        return EMPTY

    def hop(a, b):
        for (child, cpath) in spawn_edges[a]:
            if child == b:
                return cpath
        raise AssertionError("spawn edge vanished")

    stem = root_paths[cyc_nodes[0]]
    cycle: tuple = ()
    for a, b in zip(cyc_nodes, cyc_nodes[1:]):
        cycle += hop(a, b)
    lasso = Lasso(stem, cycle)
    if verify_lasso(c, lasso):
        return Verdict("nonempty", lasso=lasso)
    return Verdict("unknown", reason="spawn cycle failed to replay")


def _assert_same(c, budget):
    got = _refutation(c, budget)
    assert repr(got) == repr(reference_refutation(c, budget))
    return got


@settings(max_examples=200, deadline=None)
@given(machines(), st.sampled_from([30, 200, 1000]))
def test_refutation_equals_reference(c, budget):
    _assert_same(c, budget)


def _machine(transitions, accepting, counters=1):
    locs = ["q0"]
    for t in transitions:
        locs += [q for q in (t[0], t[4]) if q not in locs]
    return CounterAutomaton(Alphabet(("a", "b")), tuple(locs), "q0", counters,
                            tuple(transitions), frozenset(accepting))


def test_pump_machine_runs_out_of_budget_like_the_reference():
    # every step spawns a new root: a chain of 20,000 roots, each one hop on
    c = _machine([("q0", "a", "inc", 1, "q0")], {"q0"})
    assert _assert_same(c, 20_000).kind == "unknown"


@pytest.mark.parametrize("seed", [1, 2])
def test_random_buchi_pool_equals_reference(seed):
    # the buchi benchmark's kind of machine, at its budget: 114 and 123 of
    # these 300 run out of it, 164 each close a spawn cycle
    for c in random_buchi_pool(seed, 300):
        _assert_same(c, 1000)


def four_root_hops() -> CounterAutomaton:
    """A machine whose only spawn cycle is reached after four root hops."""
    return _machine([("q2", "b", "dec", 1, "q0"), ("q1", "a", "dec", 1, "q1"),
                     ("q0", "a", "inc", 1, "q2"), ("q2", "a", "inc", 1, "q1")],
                    {"q1", "q2"})


def test_spawn_cycle_after_four_root_hops():
    # the stem passes four roots before the spawn cycle on (q1, (0,))
    c = four_root_hops()
    got = _assert_same(c, 1000)
    assert got.lasso == Lasso(
        (("q0", "a", "inc", 1, "q2"), ("q2", "a", "inc", 1, "q1"),
         ("q1", "a", "dec", 1, "q1"), ("q1", "a", "dec", 1, "q1")),
        (("q1", "a", "dec", 1, "q1"),))
    assert sum(t[4] in c.accepting for t in got.lasso.stem) == 4


@pytest.mark.parametrize("transitions, accepting", [
    ([("q0", "a", "inc", 1, "q0")], set()),
    ([("q0", "a", "inc", 1, "q1")], {"q1"}),
    ([("q0", "a", "inc", 1, "q1"), ("q1", "b", "ifz", 1, "q0")], {"q0"}),
    ([("q0", "a", "dec", 1, "q1"), ("q1", "b", "inc", 1, "q2")], {"q2"}),
])
def test_crafted_empty_machines(transitions, accepting):
    assert _assert_same(_machine(transitions, accepting), 1000) is EMPTY


def test_compiled_sentence_with_deep_branches(phi, ab):
    # phi, and no two b's share a class
    distinct = parse_ltl("G (b -> store1 X G (b -> !up1))", ab)
    c = build_ca_infinite(ltl_to_ara(And(phi, distinct), ab))
    _assert_same(c, 1000)


def test_budget_spent_on_the_first_step_of_a_later_root():
    # the start's tree takes two steps and spawns the root (q2, (1,)), whose
    # tree is that root alone: step 3 is its first
    c = _machine([("q0", "a", "dec", 1, "q1"), ("q1", "b", "inc", 1, "q2")], {"q2"})
    assert _assert_same(c, 2).kind == "unknown"
    assert _assert_same(c, 3) is EMPTY


def test_a_root_without_spawn_edges_between_two_with_them():
    # the start spawns (x, (0,)) and then (y, (1,)); x spawns nothing, so y's
    # edges start where x's would, and the stem's hop out of y must be found
    # as y's, not x's
    t_x, t_y = ("q0", "a", "ifz", 1, "x"), ("q0", "b", "inc", 1, "y")
    t_z, t_loop = ("y", "a", "dec", 1, "z"), ("z", "a", "ifz", 1, "z")
    c = _machine([t_x, t_y, t_z, t_loop], {"x", "y", "z"})
    assert _assert_same(c, 1000).lasso == Lasso((t_y, t_z), (t_loop,))


def test_a_root_whose_edges_repeat_a_target_before_the_cycle():
    # p's tree reaches the dead root (d, (0,)) twice, then p itself: the
    # walk enters d once, passes the repeat and closes the cycle on p
    t_p, t_up = ("q0", "a", "inc", 1, "p"), ("p", "b", "inc", 1, "m")
    t_down = ("m", "a", "dec", 1, "p")
    c = _machine([t_p, ("p", "a", "dec", 1, "d"), ("p", "b", "dec", 1, "d"), t_up, t_down],
                 {"p", "d"})
    assert _assert_same(c, 1000).lasso == Lasso((t_p,), (t_up, t_down))
