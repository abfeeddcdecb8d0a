"""Checks that run outside the timed interval, written apart from the
library's deciders.

Each check returns ``None`` when the answer holds up and a message when it
does not.  Certificates are replayed; claims of emptiness are tested by a
search for a counterexample that the library does not share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields


# --- formulas -----------------------------------------------------------------

def formula_shape(phi, formula_type) -> tuple[int, int, set]:
    """Node count (shared subtrees counted again), depth and atom letters of
    a formula tree.  Iterative: the back-translated sentences are deeper than
    the interpreter's recursion limit."""
    nodes = depth = 0
    letters: set = set()
    stack = [(phi, 1)]
    while stack:
        f, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if type(f).__name__ in ("Atom", "NAtom"):
            letters.add(f.letter)
        for fld in fields(f):
            child = getattr(f, fld.name)
            if isinstance(child, formula_type):
                stack.append((child, d + 1))
    return nodes, depth, letters


# --- data words ---------------------------------------------------------------

def partitions(n: int) -> list:
    """Set partitions of range(n) as lists of blocks, in restricted-growth
    order."""
    out = []
    rgs = [0] * n
    while True:
        blocks: list = [[] for _ in range(max(rgs) + 1)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        out.append(blocks)
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            i -= 1
        if i == 0:
            return out
        rgs[i] += 1
        rgs[i + 1:] = [0] * (n - i - 1)


def running_property(w, i: int) -> bool:
    """The running sentence at position i, decided directly: from i on, no
    two a's share a class and every a has a later b of its class."""
    letters, cls = w.letters, w.class_of
    n = len(letters)
    for k in range(i, n):
        if letters[k] != "a":
            continue
        later = range(k + 1, n)
        if any(letters[m] == "a" and cls[m] == cls[k] for m in later):
            return False
        if not any(letters[m] == "b" and cls[m] == cls[k] for m in later):
            return False
    return True


# --- register automata ----------------------------------------------------------

def _canon(values: tuple) -> tuple:
    """Rename data values by order of first appearance (None stays None)."""
    names: dict = {}
    return tuple(None if x is None else names.setdefault(x, len(names)) for x in values)


def nra_nonempty(a) -> tuple[bool, bool]:
    """(finite, infinite) nonemptiness of a one-way nondeterministic register
    automaton, by search over concrete configurations.

    Data values come from {0..R} for R registers: the registers hold at most
    R of them, so a fresh value always exists, and configurations are kept
    up to renaming of values.  A configuration is (location, letter, last
    position?, (current value, register values)).  Finite words are accepted
    at a reachable top, or at a weak move off the last position.  Infinite
    words never reach a last position; they are accepted at a reachable top
    or on a reachable cycle of even rank.
    """
    r = a.n_registers
    letters = tuple(a.alphabet)

    def successors(state, infinite):
        q, letter, last, vals = state
        tf = a.delta[q]
        kind = type(tf).__name__
        if kind == "TTest":
            g = tf.guard
            gk = type(g).__name__
            if gk == "BLetter":
                holds = letter == g.letter
            elif gk == "BEnd":
                holds = last
            elif gk == "BUp":
                holds = vals[g.register] == vals[0]
            else:
                raise ValueError(f"guard {g!r} in a one-way automaton")
            return [(tf.then if holds else tf.other, letter, last, vals)]
        if kind == "TStore":
            regs = list(vals)
            regs[tf.register] = vals[0]
            return [(tf.target, letter, last, _canon(tuple(regs)))]
        if kind == "TOr":
            return [(tf.left, letter, last, vals), (tf.right, letter, last, vals)]
        if kind == "TMove":
            if last or not tf.forward:
                return []
            out = []
            for letter2 in letters:
                for d in range(r + 1):
                    vals2 = _canon((d,) + vals[1:])
                    for last2 in ((False,) if infinite else (False, True)):
                        out.append((tf.target, letter2, last2, vals2))
            return out
        if kind in ("TTop", "TBottom"):
            return []
        raise ValueError(f"{kind} in a nondeterministic automaton")

    def explore(infinite):
        starts = [(a.initial, letter, last, (0,) + (None,) * r)
                  for letter in letters for last in ((False,) if infinite else (False, True))]
        seen = set(starts)
        edges: dict = {}
        queue = deque(starts)
        while queue:
            st = queue.popleft()
            edges[st] = succ = successors(st, infinite)
            for nxt in succ:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return edges

    def is_top(st):
        return type(a.delta[st[0]]).__name__ == "TTop"

    fin_edges = explore(infinite=False)
    finite = any(
        is_top(st) or (st[2] and type(a.delta[st[0]]).__name__ == "TMove" and a.delta[st[0]].weak)
        for st in fin_edges)

    inf_edges = explore(infinite=True)
    if any(is_top(st) for st in inf_edges):
        return finite, True
    # an even-rank cycle: peel off even-rank states without even-rank
    # predecessors (Kahn); anything left lies on a cycle or after one
    even = {st for st in inf_edges if a.rank[st[0]] % 2 == 0}
    indeg = dict.fromkeys(even, 0)
    for st in even:
        for nxt in inf_edges[st]:
            if nxt in even:
                indeg[nxt] += 1
    ready = [st for st, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        st = ready.pop()
        removed += 1
        for nxt in inf_edges[st]:
            if nxt in even:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
    return finite, removed < len(even)


# --- counter machines -------------------------------------------------------------

def _fire(state, t):
    """Apply one transition with minimal errors: decrements stop at zero,
    zero tests need a true zero.  None when the transition cannot fire."""
    q, v = state
    src, _letter, op, ctr, dst = t
    if src != q:
        return None
    k = ctr - 1
    if op == "inc":
        return dst, v[:k] + (v[k] + 1,) + v[k + 1:]
    if op == "dec":
        return dst, v[:k] + (max(v[k] - 1, 0),) + v[k + 1:]
    if op == "ifz" and v[k] == 0:
        return dst, v
    return None


def replay_lasso(c, lasso) -> str | None:
    """A Büchi certificate: the stem fires from the initial state, and the
    cycle fires from its end, reads a letter, sees an accepting location and
    returns to the same location with no counter above where it started (the
    machine may then raise counters back, so the cycle repeats forever)."""
    known = set(c.transitions)
    unknown = [t for t in lasso.stem + lasso.cycle if t not in known]
    if unknown:
        return f"transition {unknown[0]} is not in the machine"
    state = (c.initial, (0,) * c.n_counters)
    for t in lasso.stem:
        state = _fire(state, t)
        if state is None:
            return f"stem transition {t} cannot fire"
    anchor = state
    seen_accepting = anchor[0] in c.accepting
    if not lasso.cycle:
        return "empty cycle"
    for t in lasso.cycle:
        state = _fire(state, t)
        if state is None:
            return f"cycle transition {t} cannot fire"
        seen_accepting = seen_accepting or state[0] in c.accepting
    if not any(t[1] is not None for t in lasso.cycle):
        return "cycle reads no letter"
    if not seen_accepting:
        return "cycle sees no accepting location"
    if state[0] != anchor[0] or any(x > y for x, y in zip(state[1], anchor[1])):
        return f"cycle ends at {state}, not at or below {anchor}"
    return None


def ca_accepting_cycle(c, max_states: int = 300) -> bool:
    """Does the first part of the minimal-error graph hold an exact cycle
    through an accepting location that reads a letter?  Finding one proves
    the machine nonempty on infinite words; not finding one proves nothing."""
    outgoing: dict = {}
    for t in c.transitions:
        outgoing.setdefault(t[0], []).append(t)
    start = (c.initial, (0,) * c.n_counters)
    index = {start: 0}
    states = [start]
    edges: list = []
    k = 0
    while k < len(states):
        out = []
        for t in outgoing.get(states[k][0], ()):
            nxt = _fire(states[k], t)
            if nxt is None:
                continue
            if nxt not in index and len(states) < max_states:
                index[nxt] = len(states)
                states.append(nxt)
            if nxt in index:
                out.append((index[nxt], t[1] is not None))
        edges.append(out)
        k += 1
    for comp in _sccs(len(states), edges):
        members = set(comp)
        if not any(states[i][0] in c.accepting for i in comp):
            continue
        if any(j in members and reads for i in comp for j, reads in edges[i]):
            return True
    return False


def _sccs(n: int, edges: list) -> list:
    """Strongly connected components (iterative Tarjan) of nodes 0..n-1."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comps = []
    for root in range(n):
        if root in index:
            continue
        work = [(root, 0)]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, i = work[-1]
            if i < len(edges[node]):
                work[-1] = (node, i + 1)
                nxt = edges[node][i][0]
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, 0))
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == node:
                        break
                if len(comp) > 1 or any(j == node for j, _ in edges[node]):
                    comps.append(comp)
    return comps
