"""Counter automata with silent transitions and zero tests, read either
exactly (Minsky) or with counters that may spuriously grow (incrementing).

The incrementing engines work with minimal-error successors: a decrement
becomes truncated subtraction and a zero test still demands a true zero.
Every state simulates every larger one step for step (pick the same witness
valuation), so minimal-error reachability, closed upwards, is the full
reachability set; that downward simulation justifies all the pruning below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

from .errors import CertificateError, ParseError, PreconditionViolation
from .games import _sccs
from .words import Alphabet, parse_alphabet, parse_header_count

Transition = tuple  # (source, letter-or-None, op, counter, target)


@dataclass
class CounterAutomaton:
    alphabet: Alphabet
    locations: tuple
    initial: object
    n_counters: int
    transitions: tuple
    accepting: frozenset

    def __post_init__(self):
        self.locations = tuple(self.locations)
        self.transitions = tuple(self.transitions)
        self.accepting = frozenset(self.accepting)
        self._out: dict = {q: [] for q in self.locations}
        for t in self.transitions:
            self._out[t[0]].append(t)

    def outgoing(self, q) -> list:
        return self._out[q]


def validate_ca(c: CounterAutomaton) -> list[str]:
    out = []
    locs = set(c.locations)
    if c.initial not in locs:
        out.append(f"initial location {c.initial!r} missing")
    for q, w, op, ctr, q2 in c.transitions:
        if q not in locs or q2 not in locs:
            out.append(f"transition touches unknown location: {(q, w, op, ctr, q2)}")
        if w is not None and w not in c.alphabet:
            out.append(f"unknown letter {w!r}")
        if op not in ("inc", "dec", "ifz"):
            out.append(f"unknown instruction {op!r}")
        if not 1 <= ctr <= c.n_counters:
            out.append(f"counter {ctr} out of range")
        if w is None and q2 in c.accepting:
            out.append(f"silent transition enters accepting location {q2!r}")
    return out


def initial_state(c: CounterAutomaton) -> tuple:
    return (c.initial, (0,) * c.n_counters)


def step_minsky(c: CounterAutomaton, state: tuple) -> list[tuple]:
    """Enabled transitions with exact semantics: (letter, transition, state')."""
    q, v = state
    out = []
    for t in c.outgoing(q):
        _, w, op, ctr, q2 = t
        k = ctr - 1
        if op == "inc":
            v2 = v[:k] + (v[k] + 1,) + v[k + 1:]
        elif op == "dec":
            if v[k] == 0:
                continue
            v2 = v[:k] + (v[k] - 1,) + v[k + 1:]
        else:
            if v[k] != 0:
                continue
            v2 = v
        out.append((w, t, (q2, v2)))
    return out


def step_incrementing(c: CounterAutomaton, state: tuple) -> list[tuple]:
    """Minimal-error successors; the full faulty relation is their upward
    closure.  Decrement truncates at zero, zero tests require a true zero."""
    q, v = state
    out = []
    for t in c.outgoing(q):
        _, w, op, ctr, q2 = t
        k = ctr - 1
        if op == "inc":
            v2 = v[:k] + (v[k] + 1,) + v[k + 1:]
        elif op == "dec":
            v2 = v[:k] + (max(v[k] - 1, 0),) + v[k + 1:]
        else:
            if v[k] != 0:
                continue
            v2 = v
        out.append((w, t, (q2, v2)))
    return out


def leq(v1: Sequence[int], v2: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(v1, v2))


class Antichain:
    """Per-location store of minimal valuations."""

    def __init__(self):
        self._data: dict = {}

    def add(self, q, v: tuple) -> bool:
        """Insert unless dominated; drops dominated entries.  True if kept."""
        vs = self._data.setdefault(q, [])
        for u in vs:
            if leq(u, v):
                return False
        vs[:] = [u for u in vs if not leq(v, u)]
        vs.append(v)
        return True

    def __len__(self):
        return sum(len(vs) for vs in self._data.values())


@dataclass(frozen=True)
class Lasso:
    """A replayable certificate of an accepting infinite run: transitions of
    the stem, then of a cycle whose end state is below its start state."""

    stem: tuple
    cycle: tuple


@dataclass(frozen=True)
class Verdict:
    """The answer of every nonemptiness decider and of ``accepts_word``.
    A nonempty verdict carries the certificate its decider checked, if the
    decider builds one: a ``witness`` or a ``lasso``."""

    kind: str  # "empty" | "nonempty" | "unknown"
    witness: object = None  # a letter tuple, or a DataWord from nra
    lasso: Optional[Lasso] = None
    reason: str = ""

    @property
    def is_nonempty(self) -> bool:
        return self.kind == "nonempty"

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


EMPTY = Verdict("empty")


def accepts_word(c: CounterAutomaton, word: Sequence[str], semantics: str = "incrementing",
                 budget: int = 100_000) -> Verdict:
    """Does the machine accept this finite word?

    Incrementing semantics prunes with a per-position antichain, so the
    search space is finite and the answer is complete whenever the budget
    suffices.  Minsky semantics can only explore exactly; exhausting the
    finite reachable space is a definite no, otherwise the budget may run
    out with verdict unknown.
    """
    if semantics not in ("incrementing", "minsky"):
        raise PreconditionViolation(f"unknown semantics {semantics!r}")
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


def nonempty_finite_incrementing(c: CounterAutomaton,
                                 budget: int = 1_000_000) -> Verdict:
    """Complete nonemptiness over finite words for incrementing machines.

    Forward minimal-error search with a global antichain per location; the
    store only ever shrinks valuations, so the exploration is finite and a
    reachable accepting location (after at least one transition) decides.
    The witness is re-checked with accepts_word before being reported.
    """
    store = Antichain()
    start = initial_state(c)
    queue = deque([(start, ())])
    store.add(start[0], start[1])
    explored = 0
    while queue:
        (q, v), word = queue.popleft()
        explored += 1
        if explored > budget:
            return Verdict("unknown", reason=f"budget of {budget} states spent")
        for w, _t, (q2, v2) in step_incrementing(c, (q, v)):
            word2 = word + (w,) if w is not None else word
            if q2 in c.accepting:
                if not accepts_word(c, word2, "incrementing").is_nonempty:
                    raise CertificateError(f"witness {word2} failed to replay")
                return Verdict("nonempty", witness=word2)
            if store.add(q2, v2):
                queue.append(((q2, v2), word2))
    return Verdict("empty", reason="antichain exploration exhausted")


def verify_lasso(c: CounterAutomaton, lasso: Lasso) -> bool:
    """Replay the certificate: the cycle must return to the same location
    at or below the starting valuation, visit an accepting location, and
    read at least one letter."""
    state = initial_state(c)
    for t in lasso.stem:
        state = _apply_min(c, state, t)
        if state is None:
            return False
    anchor = state
    saw_acc = anchor[0] in c.accepting
    saw_letter = False
    for t in lasso.cycle:
        state = _apply_min(c, state, t)
        if state is None:
            return False
        if state[0] in c.accepting:
            saw_acc = True
        if t[1] is not None:
            saw_letter = True
    return state[0] == anchor[0] and leq(state[1], anchor[1]) and saw_acc and saw_letter


def _apply_min(c: CounterAutomaton, state, t) -> Optional[tuple]:
    for w, t2, nxt in step_incrementing(c, state):
        if t2 == t:
            return nxt
    return None


def _explore_min_graph(c: CounterAutomaton, budget: int):
    """Bounded BFS of the minimal-error graph: (states, edges, parent), with
    ``edges[i] = [(t, j), ...]`` and ``parent[i] = (j, t)`` (None at the
    start) over state indices.  Successors beyond the budget are dropped."""
    start = initial_state(c)
    states = [start]
    index = {start: 0}
    edges: list = []
    parent: list = [None]
    for k, st in enumerate(states):  # grows while it is walked: a BFS queue
        out = []
        for w, t, nxt in step_incrementing(c, st):
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


def _witness_search(c: CounterAutomaton, budget: int) -> Optional[Lasso]:
    """Look for a pumpable cycle: a path from (q, v) back to (q, v') with
    v' <= v that sees an accepting location; sound by downward simulation.

    Exploration is deepened in stages and each stage's snapshot is scanned.
    The stages bound the memory of the scan's reachability bitsets, which is
    quadratic in the explored graph.
    """
    caps = [cap for cap in (200, 1500, 6000) if cap <= budget] or [budget]
    for cap in caps:
        states, edges, parent = _explore_min_graph(c, cap)
        lasso = _scan_for_lasso(c, states, edges, parent)
        if lasso is not None:
            return lasso
        if len(states) < cap:  # the whole graph fit: no point deepening
            break
    return None


# The scan searches from every source in index order until its searches have
# together scanned this many times the graph's edges; then one
# _lasso_sources pass rules out the sources without a hit.  Most lassos sit
# at source 0-2 and cost tenths of a millisecond, while the pass costs about
# a millisecond at 200 states.  On the buchi benchmark (seed 1, 10 s, a
# shared 2-core host) the p50 was 0.97 ms with the pass first, 0.51 ms with
# it after source 0, and 0.45, 0.43 and 0.43 ms at 2, 4 and 8 times the
# edges.
_PASS_AFTER_EDGE_SCANS = 4


def _scan_for_lasso(c, states, edges, parent) -> Optional[Lasso]:
    """The first hit of a BFS from each source in turn over (state, seen an
    accepting state) pairs whose cycle replays; a hit is a state at the
    source's location, at or below its valuation, reached having seen an
    accepting state."""
    accepting = [q in c.accepting for q, _ in states]
    pass_after = _PASS_AFTER_EDGE_SCANS * sum(map(len, edges))
    scanned = 0
    candidates = None

    def path(back, key) -> list:
        out = []
        while back[key] is not None:
            key, t = back[key]
            out.append(t)
        out.reverse()
        return out

    for src, (q, v) in enumerate(states):
        if candidates is None and scanned > pass_after:
            candidates = _lasso_sources(states, edges, accepting)
        if candidates is not None and not candidates[src]:
            continue
        # a key is 2 * state + (1 if an accepting state was seen)
        start_key = 2 * src + accepting[src]
        back: dict = {start_key: None}
        queue = deque([start_key])
        while queue:
            key = queue.popleft()
            out = edges[key >> 1]
            scanned += len(out)
            for t, j in out:
                nkey = 2 * j + ((key & 1) or accepting[j])
                # tested before the skip: the start key may be hit itself
                if nkey & 1 and states[j][0] == q and leq(states[j][1], v):
                    lasso = Lasso(tuple(path(parent, src)), tuple(path(back, key) + [t]))
                    if verify_lasso(c, lasso):
                        return lasso
                if nkey in back:
                    continue
                back[nkey] = (key, t)
                queue.append(nkey)
    return None


def _lasso_sources(states, edges, accepting) -> list[bool]:
    """Which states can start a scan hit: a path of one or more steps to a
    state at the same location with a valuation at or below theirs, seeing
    an accepting state on the way (the source counts).  One pass over the
    strongly connected components, sinks first, with int bitsets."""
    n = len(states)
    reach = [0] * n  # reachable in one or more steps
    reach_acc = [0] * n  # ... by a path seeing an accepting state after the start
    for scc in _sccs(range(n), [[j for _, j in out] for out in edges]):
        r = ra = 0
        cyclic = False
        for i in scc:
            for _, j in edges[i]:
                if j in scc:
                    cyclic = True
                    continue
                r |= reach[j] | 1 << j
                ra |= (reach[j] | 1 << j) if accepting[j] else reach_acc[j]
        if cyclic:
            for i in scc:
                r |= 1 << i
            if any(accepting[i] for i in scc):
                ra = r
        for i in scc:
            reach[i] = r
            reach_acc[i] = ra
    # below[i]: the states at i's location with valuation <= i's, as the AND
    # over counters of prefix unions in that counter's order
    below = [0] * n
    by_location: dict = {}
    for i, (q, _) in enumerate(states):
        by_location.setdefault(q, []).append(i)
    for group in by_location.values():
        everyone = 0
        for i in group:
            everyone |= 1 << i
        for i in group:
            below[i] = everyone
        for k in range(len(states[0][1])):
            def value(i, k=k):
                return states[i][1][k]
            prefix = 0
            for _, run in groupby(sorted(group, key=value), key=value):
                run = list(run)
                for i in run:
                    prefix |= 1 << i
                for i in run:
                    below[i] &= prefix
    # below[i] shares i's location, so it is accepting when i is: a path
    # from i into below[i] sees an accepting state after i whenever i is one
    return [bool(reach_acc[i] & below[i]) for i in range(n)]


def _refutation(c: CounterAutomaton, budget: int):
    """The tree procedure: grow reachability trees cut at accepting
    locations and at ancestor-dominated states, then restart from each
    accepting leaf.  Termination with no root revisited proves emptiness;
    a revisited root closes an accepting cycle and is itself a witness.
    """
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
            st, path, anc = stack.pop()
            for w, t, nxt in step_incrementing(c, st):
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
    # reconstruct a lasso along the spawn cycle
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


def nonempty_infinite_incrementing(c: CounterAutomaton, budget: int = 100_000) -> Verdict:
    """Tri-state nonemptiness over infinite words for incrementing machines.

    A pumpable accepting cycle is a definite yes; termination of the tree
    refutation is a definite no; otherwise the budget ran out.  No complete
    positive test exists, so unknown answers are unavoidable in general.
    """
    lasso = _witness_search(c, budget)
    if lasso is not None:
        return Verdict("nonempty", lasso=lasso)
    return _refutation(c, budget)


def nonempty_minsky_bounded(c: CounterAutomaton, over: str = "finite",
                            budget: int = 100_000) -> Verdict:
    """Semi-decision for Minsky machines: exact breadth-first search.  A
    definite yes when found; never claims emptiness."""
    start = initial_state(c)
    seen = {(start, False)}
    queue = deque([(start, False, ())])
    explored = 0
    while queue:
        state, moved, path = queue.popleft()
        explored += 1
        if explored > budget:
            return Verdict("unknown", reason=f"budget of {budget} states spent")
        if over == "infinite" and moved and state[0] in c.accepting:
            # look for an exact cycle back to this state through letters
            l = _minsky_cycle(c, state, budget)
            if l is not None:
                stem = tuple(t for t in path)
                return Verdict("nonempty", lasso=Lasso(stem, l))
        for w, t, nxt in step_minsky(c, state):
            if over == "finite" and nxt[0] in c.accepting:
                word = tuple(x[1] for x in path + (t,) if x[1] is not None)
                return Verdict("nonempty", witness=word)
            key = (nxt, True)
            if key not in seen:
                seen.add(key)
                queue.append((nxt, True, path + (t,)))
    if over == "finite":
        # exhausting exact reachability without an accepting hit is still
        # only reported as unknown: the search is a semi-decision by contract
        return Verdict("unknown", reason="exact exploration exhausted")
    return Verdict("unknown", reason="no exact accepting cycle found")


def _minsky_cycle(c: CounterAutomaton, anchor, budget: int) -> Optional[tuple]:
    seen = {anchor}
    queue = deque([(anchor, ())])
    explored = 0
    while queue:
        state, path = queue.popleft()
        explored += 1
        if explored > budget:
            return None
        for w, t, nxt in step_minsky(c, state):
            path2 = path + (t,)
            if nxt == anchor and any(x[1] is not None for x in path2):
                return path2
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path2))
    return None


def rename_locations(c: CounterAutomaton) -> CounterAutomaton:
    """A copy with locations q0..qN, in location order; handy before
    serializing machines whose locations are structured values."""
    names = {q: f"q{k}" for k, q in enumerate(c.locations)}
    return CounterAutomaton(
        c.alphabet, tuple(names[q] for q in c.locations), names[c.initial],
        c.n_counters,
        tuple((names[q], w, op, ctr, names[q2]) for (q, w, op, ctr, q2) in c.transitions),
        frozenset(names[q] for q in c.accepting),
    )


# --- text format ---------------------------------------------------------------

def parse_ca(text: str) -> CounterAutomaton:
    sigma = None
    n_counters = None
    initial = None
    accepting: frozenset = frozenset()
    trans: list = []
    locs: list = []
    seen_locs: set = set()

    def note(q):
        if q not in seen_locs:
            seen_locs.add(q)
            locs.append(q)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            sigma = parse_alphabet(line.split(":", 1)[1].split())
        elif line.startswith("counters:"):
            n_counters = parse_header_count(line)
        elif line.startswith("init:"):
            initial = line.split(":", 1)[1].strip()
            note(initial)
        elif line.startswith("accepting:"):
            accepting = frozenset(line.split(":", 1)[1].split())
        else:
            toks = line.split()
            if len(toks) != 5:
                raise ParseError(f"bad transition line {line!r}")
            q, w, op, ctr, q2 = toks
            if not ctr.isdigit():
                raise ParseError(f"bad counter index in {line!r}")
            note(q)
            note(q2)
            trans.append((q, None if w == "eps" else w, op, int(ctr), q2))
    if sigma is None or n_counters is None or initial is None:
        raise ParseError("missing alphabet:, counters: or init: header")
    for q in accepting:
        note(q)
    return CounterAutomaton(sigma, tuple(locs), initial, n_counters,
                            tuple(trans), accepting)


def format_ca(c: CounterAutomaton) -> str:
    names = {q: q if isinstance(q, str) else f"q{k}" for k, q in enumerate(c.locations)}
    lines = [f"alphabet: {' '.join(c.alphabet.letters)}",
             f"counters: {c.n_counters}",
             f"init: {names[c.initial]}",
             f"accepting: {' '.join(sorted(names[q] for q in c.accepting))}"]
    for q, w, op, ctr, q2 in c.transitions:
        lines.append(f"{names[q]} {w if w is not None else 'eps'} {op} {ctr} {names[q2]}")
    return "\n".join(lines) + "\n"


def ca_to_dot(c: CounterAutomaton, name: str = "ca") -> str:
    names = {q: f"n{k}" for k, q in enumerate(c.locations)}
    lines = [f"digraph {name} {{"]
    for q in c.locations:
        shape = "doublecircle" if q in c.accepting else "circle"
        lines.append(f'  {names[q]} [shape={shape} label="{q}"];')
    for q, w, op, ctr, q2 in c.transitions:
        lines.append(f'  {names[q]} -> {names[q2]} [label="{w or "eps"},{op},{ctr}"];')
    lines.append("}")
    return "\n".join(lines)
