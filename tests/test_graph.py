import itertools

from hypothesis import given, settings, strategies as st

from datawords.graph import adjacency, cyclic, reach, sccs


def closure(n, edges):
    """Brute force: r[x][y] when a path of zero or more edges leads x to y."""
    r = [[x == y or (x, y) in edges for y in range(n)] for x in range(n)]
    for k, x, y in itertools.product(range(n), repeat=3):
        r[x][y] = r[x][y] or (r[x][k] and r[k][y])
    return r


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_sccs_are_the_mutual_reachability_classes_sinks_first(graph):
    n, edges = graph
    r = closure(n, edges)
    succ = [[y for x2, y in sorted(edges) if x2 == x] for x in range(n)]
    comps = sccs(range(n), succ)
    assert sorted(q for comp in comps for q in comp) == list(range(n))
    for comp in comps:
        x = min(comp)
        assert comp == {y for y in range(n) if r[x][y] and r[y][x]}
        assert cyclic(comp, succ) == any(r[x][y] and (y, x) in edges for y in range(n))
    order = {q: k for k, comp in enumerate(comps) for q in comp}
    assert all(order[y] <= order[x] for x, y in edges)  # sinks first
    # a dict successor map gives the same components
    assert sccs(range(n), dict(enumerate(succ))) == comps
    for x in range(n):
        assert reach(adjacency(edges), [x]) == {y for y in range(n) if r[x][y]}


def test_sccs_of_the_nodes_reached_only():
    succ = {0: [1], 1: [0], 2: [0]}
    assert sccs([0], succ) == [{0, 1}]
    assert sccs([2, 0], succ) == [{0, 1}, {2}]


def test_cyclic_singletons():
    assert not cyclic({0}, {0: [1], 1: []})
    assert cyclic({0}, {0: [1, 0], 1: []})
    assert cyclic({0, 1}, {0: [1], 1: [0]})


def test_reach_edge_cases():
    succ = {0: [1], 1: [2]}  # 2 and 3 have no entry
    assert reach(succ, ()) == set()
    assert reach(succ, [0]) == {0, 1, 2}
    assert reach(succ, [2, 3]) == {2, 3}


def test_adjacency():
    assert adjacency([]) == {}
    assert adjacency([(0, 1), (0, 2), (2, 0), (0, 1)]) == {0: [1, 2, 1], 2: [0]}


def test_long_chain_and_ring_take_no_recursion():
    n = 100_000
    chain = [[i + 1] for i in range(n - 1)] + [[]]
    comps = sccs(range(n), chain)
    assert comps == [{i} for i in range(n - 1, -1, -1)]
    assert not any(cyclic(c, chain) for c in comps)
    ring = [[(i + 1) % n] for i in range(n)]
    (comp,) = sccs(range(n), ring)
    assert len(comp) == n and cyclic(comp, ring)
    assert reach(dict(enumerate(chain)), [0]) == set(range(n))
    assert reach(dict(enumerate(ring)), [n // 2]) == set(range(n))
