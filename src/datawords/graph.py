"""Finite directed graphs as successor maps: ``succ[x]`` lists the
successors of ``x``, and ``succ`` is a dict, or a list over nodes 0..n-1.
Weak ranks, Büchi cycles and the cuts of ``ra2ca`` all come down to
strongly connected components and reachability.  Nothing here recurses.
"""

from __future__ import annotations

from math import inf
from typing import Iterable


def sccs(nodes: Iterable, succ) -> list[set]:
    """The strongly connected components of the part of the graph that
    ``nodes`` reach, sinks first: a component comes after every component
    it has an edge into.  Tarjan's algorithm (SIAM J. Comput. 1972), made
    iterative; every node reached needs an entry in ``succ``."""
    low: dict = {}  # a node's lowlink; inf once its component is out
    stack: list = []
    out = []
    for root in nodes:
        if root in low:
            continue
        low[root] = num = len(low)
        work = [(root, num, len(stack), iter(succ[root]))]
        stack.append(root)
        while work:
            node, num, pos, it = work[-1]
            for child in it:
                if child not in low:
                    low[child] = n = len(low)
                    work.append((child, n, len(stack), iter(succ[child])))
                    stack.append(child)
                    break
                if low[child] < low[node]:
                    low[node] = low[child]
            else:  # every child done
                work.pop()
                if low[node] == num:
                    if stack[-1] is node:  # a component of one node
                        stack.pop()
                        low[node] = inf
                        out.append({node})
                        continue
                    scc = set(stack[pos:])
                    del stack[pos:]
                    for q in scc:
                        low[q] = inf
                    out.append(scc)
                elif low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return out


def cyclic(scc: set, succ) -> bool:
    """Whether a component holds a cycle: two nodes or more, or a self-loop."""
    if len(scc) > 1:
        return True
    (x,) = scc
    return x in succ[x]


def reach(succ: dict, sources: Iterable) -> set:
    """The nodes with a path, maybe empty, from ``sources``; a node without
    an entry in ``succ`` has no successors."""
    found = set(sources)
    stack = list(found)
    while stack:
        for y in succ.get(stack.pop(), ()):
            if y not in found:
                found.add(y)
                stack.append(y)
    return found


def adjacency(pairs: Iterable) -> dict:
    """The successor map of the edges ``(x, y)``; a node without an
    outgoing edge has no entry."""
    succ: dict = {}
    for x, y in pairs:
        succ.setdefault(x, []).append(y)
    return succ
