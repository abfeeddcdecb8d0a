"""The Büchi tree refutation against the plain version it speeds up.

``reference_refutation`` copies the whole path from the start to every new
root, copies the branch's ancestors and its path on every push, and tests
every ancestor for domination.  ``ca._refutation`` keeps paths as links, the
branch once, and the branch's valuations per location; it visits the same
states in the same order, so the two must give the same verdict and lasso.
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


def test_spawn_cycle_after_four_root_hops():
    # the stem passes four roots before the spawn cycle on (q1, (0,))
    c = _machine([("q2", "b", "dec", 1, "q0"), ("q1", "a", "dec", 1, "q1"),
                  ("q0", "a", "inc", 1, "q2"), ("q2", "a", "inc", 1, "q1")],
                 {"q1", "q2"})
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
