"""Counter automata with silent transitions and zero tests, read either
exactly (Minsky) or with counters that may spuriously grow (incrementing).

The incrementing engines work with minimal-error successors: a decrement
becomes truncated subtraction and a zero test still demands a true zero.
Every state simulates every larger one step for step (pick the same witness
valuation), so minimal-error reachability, closed upwards, is the full
reachability set; that downward simulation justifies all the pruning below.

Both relations are ``step_incrementing``, the exact one with ``exact``;
``verify_lasso`` replays certificates through it on tuples.  The search
engines pack each valuation into one ``int`` (``_packing``): counter k in a
field of the budget's bit length plus a value bit and a guard bit, which
no value reaches, since no engine holds a value above its budget + 1.  A
step is one addition or subtraction, a domination test one subtraction
and mask.  The finite-word deciders share one breadth-first search,
``_search``.  It is guided by the counter-free control graph
(``CounterAutomaton._guide``, one backward pass from the accepting
locations): a successor whose location cannot, ignoring the counters,
read the rest of the word and then accept is dropped before its
valuation is computed.  Its descendants could not pass either, so the
states that remain keep their order and antichains, and a search budget
counts the states taken off the queue among those that remain.  Before
the word's last letter the guide asks for more than a way on to
acceptance: a way to read that letter and then reach an accepting
location by silent steps alone, which is what the run must do there.

The Büchi witness search is ruled by the control graph too
(``CounterAutomaton._returning``).  Under minimal-error steps a counter
falls only by its ``dec`` transitions, so a cycle that ends at or below
its start valuation decrements every counter it increments, and all of
its transitions stay inside one strongly connected component of every
control graph pruned of the ``inc k`` transitions whose component holds
no ``dec k``.  Only a location of such a component that holds an
accepting location and a lettered transition can start a lasso's cycle,
so the scan searches from no other location, and a machine without such
a location is not explored at all (the cycle-effect argument of Karp &
Miller, 1969).

The searches record a path as a link ``(link, t)`` back to None at its
start, which ``_unlink`` turns into the transitions it spells.  The tree
refutation keeps flat lists of ints instead (``_refutation``): a run that
spends its budget grows thousands of nodes and accepting leaves, all
garbage when it returns, and as linked tuples they cost an allocation each
and the cyclic collector's passes over them.  The searches keep their
links: a ``_search`` on index lists ran ``accepts_word`` 3-5% slower on
the circle words.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import le
from typing import Optional, Sequence

from .errors import CertificateError, ParseError, PreconditionViolation, check_budget
from .graph import adjacency, sccs, to_dot
from .words import Alphabet, parse_alphabet, parse_header_count, parse_lines


@dataclass(frozen=True)
class CounterAutomaton:
    """Read-only: ``outgoing``, the search guide and the returning
    locations are derived from the fields once, so the fields cannot be
    reassigned."""

    alphabet: Alphabet
    locations: tuple
    initial: object
    n_counters: int
    transitions: tuple
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        out: dict = {q: [] for q in self.locations}
        for t in self.transitions:
            out[t[0]].append(t)
        object.__setattr__(self, "_out", out)

    def outgoing(self, q) -> list:
        return self._out[q]

    @cached_property
    def _guide(self) -> dict:
        """Built on the first search: for each location that can reach an
        accepting location, the bits (see ``_letter_bits``) of the letters
        it can read, after silent steps only, on a transition into such a
        location, plus bit 0 if a silent path, maybe empty, leads it into an
        accepting location, plus the "last" bit of each letter it can read,
        after silent steps only, into a location that has bit 0.  The other
        locations are absent.

        One backward pass from the accepting locations over the transitions
        into each location: a silent transition passes its target's mask
        on, a lettered one gives its letter's bit, and its last bit when the
        target has bit 0.  A location whose mask grows is visited again, so
        the pass ends at the least fixpoint."""
        bits = _letter_bits(self.alphabet)
        shift = len(self.alphabet.letters)
        into = adjacency((t[4], t) for t in self.transitions)
        guide = dict.fromkeys(self.accepting, 1)
        stack = list(guide)
        while stack:
            m = guide[q2 := stack.pop()]
            for q, w, _op, _ctr, _q2 in into.get(q2, ()):
                if w is None:
                    add = m
                else:
                    add = bits.get(w, -2)
                    if m & 1:
                        add |= add << shift
                if add & ~guide.get(q, 0):
                    guide[q] = guide.get(q, 0) | add
                    stack.append(q)
        return guide

    @cached_property
    def _returning(self) -> frozenset:
        """Built on the first witness search: the locations through which a
        returning cycle, one that ends at or below its start valuation, can
        pass an accepting location and read a letter.

        The lemma: under minimal-error steps a counter falls only by its
        ``dec`` transitions, so a returning cycle decrements every counter
        it increments, and all its transitions stay inside one strongly
        connected component of the control graph.  Dropping every ``inc k``
        transition whose component holds no ``dec k`` keeps the cycle, so it
        stays inside one component of every graph so pruned.  Each component
        is pruned and split again until nothing changes; the locations of
        the components left with an accepting location and a lettered
        transition inside are the answer.  No counter is looked at."""
        found: set = set()
        work = [self.transitions]
        while work:
            trans = work.pop()
            succ: dict = {q: [] for t in trans for q in (t[0], t[4])}
            for t in trans:
                succ[t[0]].append(t[4])
            comp = {q: k for k, scc in enumerate(sccs(succ, succ)) for q in scc}
            inner = adjacency((comp[t[0]], t) for t in trans if comp[t[0]] == comp[t[4]])
            for ts in inner.values():
                decs = {t[3] for t in ts if t[2] == "dec"}
                kept = [t for t in ts if t[2] != "inc" or t[3] in decs]
                if len(kept) < len(ts):
                    work.append(kept)
                elif (any(t[1] is not None for t in ts)
                      and any(t[0] in self.accepting for t in ts)):
                    found.update(t[0] for t in ts)
        return frozenset(found)


def _letter_bits(alphabet: Alphabet) -> dict:
    """The guide's bit of each letter, above bit 0; its last bit is that
    bit shifted left by the size of the alphabet.  Callers look a letter
    up with default -2, all of them, last bits included: a letter outside
    the alphabet, which ``validate_ca`` rejects, is then never pruned on."""
    return {a: 2 << k for k, a in enumerate(alphabet.letters)}


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


def step_incrementing(c: CounterAutomaton, state: tuple, exact: bool = False) -> list[tuple]:
    """Enabled transitions, as (letter, transition, state').  By default
    the minimal-error successors, whose upward closure is the full faulty
    relation: a decrement truncates at zero, a zero test requires a true
    zero.  With ``exact`` the Minsky relation, where a decrement needs a
    positive counter."""
    q, v = state
    out = []
    for t in c.outgoing(q):
        _, w, op, ctr, q2 = t
        k = ctr - 1
        if op == "inc":
            v2 = v[:k] + (v[k] + 1,) + v[k + 1:]
        elif op == "dec":
            if v[k]:
                v2 = v[:k] + (v[k] - 1,) + v[k + 1:]
            elif exact:
                continue
            else:
                v2 = v  # truncated at zero
        elif v[k]:
            continue
        else:
            v2 = v
        out.append((w, t, (q2, v2)))
    return out


def leq(v1: Sequence[int], v2: Sequence[int]) -> bool:
    return all(map(le, v1, v2))


def _packing(n_counters: int, budget: int) -> tuple:
    """``(ones, masks, guard)``: counter k (from 1) in field k - 1, of ``w
    = budget.bit_length() + 2`` bits under a clear guard bit, is stepped by
    ``ones[k]``, zero when ``v & masks[k]`` is, and ``a <= b`` is ``((b |
    guard) - a) & guard == guard``: a field below zero borrows its guard.

    The width rests on a lemma: no engine holds a value above budget + 1.
    Each transition moves one counter by one, and every held state is at
    most budget + 1 transitions from the start, since an engine expands at
    most budget states (the explorer its start at least), each a successor
    of an earlier one.  budget + 1 fits in ``w - 1`` bits.  Each public
    decider refuses a budget below 1 on entry (``check_budget``), since the
    staged ones may answer before their full budget reaches here."""
    w = budget.bit_length() + 2
    ones = [0] + [1 << (k * w) for k in range(n_counters)]
    masks = [one * ((1 << (w - 1)) - 1) for one in ones]
    return ones, masks, sum(ones) << (w - 1)


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
    # from the finite nonemptiness deciders, the transitions of the run they
    # found: one of the runs that read the witness, so verdicts compare and
    # print without it
    run: tuple = field(default=(), compare=False, repr=False)

    @property
    def is_nonempty(self) -> bool:
        return self.kind == "nonempty"

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


EMPTY = Verdict("empty")


def _search(c: CounterAutomaton, word: Optional[tuple], exact: bool, budget: int):
    """Breadth-first search over (position, location, valuation) for a run
    that reads ``word`` and then, after at least one transition, is at an
    accepting location.  Returns its path link (see ``_unlink``), False when
    the space is exhausted, or None when more than ``budget`` states were
    taken off the queue.  A transition reading a letter other than the
    word's next one is skipped before its valuation is computed, and so is
    one into a location whose guide mask lacks the bit of the word's letter
    at the new position (its last bit if that letter is the word's last),
    or bit 0 at the word's end.  With ``word=None`` any
    letters are read, a location outside the guide is skipped, and the
    position only records whether a letter has been read: a state reached
    by a letter is never pruned by the start state, which may be at an
    accepting location.  The budget counts only states the guide kept.
    """
    free = word is None
    n = 0 if free else len(word)
    guide = c._guide
    bits = _letter_bits(c.alphabet)
    # per position, the guide bits a successor there must have one of: the
    # bit of the next letter, its last bit before the last letter, bit 0 at
    # the end
    need = [-1, -1] if free else [bits.get(a, -2) for a in word] + [1]
    if n:
        need[n - 1] <<= len(c.alphabet.letters)
    accepting = c.accepting
    ones, masks, guard = _packing(c.n_counters, budget)
    # incrementing: per position, per location, the minimal valuations seen;
    # minsky: every (position, location, valuation, moved) seen
    chains: list = [{} for _ in range(n + 1 + free)]
    chains[0][c.initial] = [0]
    seen_exact = {(0, c.initial, 0, False)}
    explored = 0
    queue = deque([(0, c.initial, 0, False, None)])
    while queue:
        pos, q, v, moved, link = queue.popleft()
        explored += 1
        if explored > budget:
            return None
        if pos >= n and moved and q in accepting:
            return link
        letter = word[pos] if pos < n else None
        for t in c.outgoing(q):
            _q, w, op, ctr, q2 = t
            if w is None:
                pos2 = pos
            elif w == letter:
                pos2 = pos + 1
            elif free:
                pos2 = 1
            else:
                continue
            if not guide.get(q2, 0) & need[pos2]:
                continue
            # the packed step, inline and after the guide: a call per
            # transition ran accepts_word 4-7% slower on the circle words,
            # measured on tuple valuations
            if op == "inc":
                v2 = v + ones[ctr]
            elif v & masks[ctr]:
                if op != "dec":
                    continue
                v2 = v - ones[ctr]
            elif exact and op == "dec":
                continue
            else:
                v2 = v  # a zero test passes, a decrement truncates at zero
            if exact:
                nxt = (pos2, q2, v2, True)
                if nxt in seen_exact:
                    continue
                seen_exact.add(nxt)
            else:  # insert unless dominated, dropping what it dominates
                vs = chains[pos2].get(q2)
                if vs is None:
                    chains[pos2][q2] = [v2]
                elif any(((v2 | guard) - u) & guard == guard for u in vs):
                    continue
                else:
                    vs[:] = [u for u in vs if ((u | guard) - v2) & guard != guard]
                    vs.append(v2)
            queue.append((pos2, q2, v2, True, (link, t)))
    return False


def _finite_witness(link) -> Verdict:
    """The nonempty verdict of a path link: the word it reads, and its run."""
    run = _unlink(link)
    return Verdict("nonempty", witness=tuple(t[1] for t in run if t[1] is not None), run=run)


def accepts_word(c: CounterAutomaton, word: Sequence[str], semantics: str = "incrementing",
                 budget: int = 100_000) -> Verdict:
    """Does the machine accept this finite word?

    Incrementing semantics prunes with a per-position antichain, so the
    answer is complete whenever the budget suffices.  Minsky semantics can
    only explore exactly: exhausting the reachable space is a definite no,
    otherwise the budget, of states taken off the queue, may run out.
    """
    if semantics not in ("incrementing", "minsky"):
        raise PreconditionViolation(f"unknown semantics {semantics!r}")
    check_budget(budget)
    word = tuple(word)
    found = _search(c, word, semantics == "minsky", budget)
    if found is None:
        return Verdict("unknown", reason=f"budget of {budget} states spent")
    if found:
        return Verdict("nonempty", witness=word)
    space = "exact state space" if semantics == "minsky" else "search space"
    return Verdict("empty", reason=f"{space} exhausted")


def nonempty_finite_incrementing(c: CounterAutomaton,
                                 budget: int = 1_000_000) -> Verdict:
    """Complete nonemptiness over finite words for incrementing machines:
    the minimal-error search with antichains is finite, and a reachable
    accepting location (after at least one transition) decides.  The budget
    counts states taken off the queue.  The witness is re-checked with
    accepts_word before being reported."""
    check_budget(budget)
    found = _search(c, None, False, budget)
    if found is None:
        return Verdict("unknown", reason=f"budget of {budget} states spent")
    if not found:
        return Verdict("empty", reason="antichain exploration exhausted")
    verdict = _finite_witness(found)
    if not accepts_word(c, verdict.witness, "incrementing").is_nonempty:
        raise CertificateError(f"witness {verdict.witness} failed to replay")
    return verdict


def verify_lasso(c: CounterAutomaton, lasso: Lasso) -> bool:
    """Replay the certificate: the cycle must return to the same location
    at or below the starting valuation, visit an accepting location, and
    read at least one letter.  It replays on tuples, through
    ``step_incrementing``, independently of the searches' packing."""
    states = [initial_state(c)]
    for t in lasso.stem + lasso.cycle:
        nxt = next((s for _w, t2, s in step_incrementing(c, states[-1]) if t2 == t), None)
        if nxt is None:
            return False
        states.append(nxt)
    cycle = states[len(lasso.stem):]
    return (cycle[-1][0] == cycle[0][0] and leq(cycle[-1][1], cycle[0][1])
            and any(q in c.accepting for q, _ in cycle)
            and any(t[1] is not None for t in lasso.cycle))


def _explore_min_graph(c: CounterAutomaton, budget: int, exact: bool = False):
    """Bounded BFS of the minimal-error graph (the exact one with
    ``exact``): (states, edges, parent, packing), with states ``(q, v)``
    packed by ``packing``, ``edges[i] = [(t, j), ...]`` over state indices
    and ``parent[i]`` the path link of the BFS tree to state i (None at the
    start).  Successors beyond the budget are dropped."""
    packing = ones, masks, _guard = _packing(c.n_counters, budget)
    start = (c.initial, 0)
    states = [start]
    index = {start: 0}
    edges: list = []
    parent: list = [None]
    for k, (q, v) in enumerate(states):  # grows while it is walked: a BFS queue
        out = []
        for t in c.outgoing(q):
            _q, _w, op, ctr, q2 = t
            # the packed step, inline: a call per expanded state ran the
            # buchi benchmark's machines about 7% slower
            if op == "inc":
                v2 = v + ones[ctr]
            elif v & masks[ctr]:
                if op != "dec":
                    continue
                v2 = v - ones[ctr]
            elif exact and op == "dec":
                continue
            else:
                v2 = v  # a zero test passes, a decrement truncates at zero
            nxt = (q2, v2)
            j = index.get(nxt)
            if j is None:
                if len(states) >= budget:
                    continue
                j = index[nxt] = len(states)
                states.append(nxt)
                parent.append((parent[k], t))
            out.append((t, j))
        edges.append(out)
    return states, edges, parent, packing


def _witness_search(c: CounterAutomaton, budget: int) -> Optional[Lasso]:
    """Look for a pumpable cycle: a path from (q, v) back to (q, v') with
    v' <= v that sees an accepting location; sound by downward simulation.

    Such a cycle starts at a location of ``CounterAutomaton._returning``,
    so a machine without one is answered before anything is explored.
    Otherwise exploration is deepened in stages and each stage's snapshot
    is scanned.  The stages bound the memory of the scan's reachability
    bitsets, which is quadratic in the explored graph.  They are the
    stages of ``_STAGES`` within the budget, and the budget itself when it
    lies below the second.  Each stage's graph is the subgraph induced by
    the first states of the next one's, which the BFS finds in the same
    order, so a lasso found early also lies in every later graph: staging
    changes which lasso is found, never whether one is.
    """
    if not c._returning:
        return None
    caps = [cap for cap in _STAGES if cap <= budget]
    if len(caps) < 2 and budget not in caps:
        caps.append(budget)
    for cap in caps:
        states, edges, parent, packing = _explore_min_graph(c, cap)
        lasso = _scan_for_lasso(c, states, edges, parent, packing)
        if lasso is not None:
            return lasso
        if len(states) < cap:  # the whole graph fit: no point deepening
            break
    return None


# The graph sizes a lasso search explores afresh.  The first is small
# because most lassos sit near the start: of the 1,488 nonempty machines
# among the first 2,000 of the buchi pool of seed 1, 1,465 replay a lasso
# within 8 explored states, 1,484 within 16 and all within 25.  With it the
# benchmark's median buchi query fell from about 0.19 to 0.05 ms (20 s
# runs, seeds 1-10, shared 2-core host).
_STAGES = (16, 200, 1500, 6000)


# The scan searches from every returning source in index order until its
# searches have together scanned this many times the graph's edges; then
# one _lasso_sources pass rules out the sources without a hit.  Most lassos
# sit at the first sources, found before the pass.  Measured with the
# returning filter on a shared 2-core host: the first 2,000 machines of the
# buchi pools of seeds 1 and 2 three times over and the 14 fixed machines
# 20 times each, the three settings run in turn on each machine, took
# 10.24 s at 0, 8.85 s at 2 and 9.06 s at 4 times the edges (nonempty
# machines 2.88, 1.76 and 1.77 s; unknown ones 6.13, 6.08 and 6.26 s).  On
# the benchmark (10 s runs, seeds 1-5) the three read 1,508, 1,562 and
# 1,597 qps in the median, within the runs' spread of 1,442-1,722.
_PASS_AFTER_EDGE_SCANS = 2


def _scan_for_lasso(c, states, edges, parent, packing) -> Optional[Lasso]:
    """The first hit of a BFS from each source in turn over (state, seen an
    accepting state) pairs whose cycle replays; a hit is a state at the
    source's location, at or below its valuation, reached having seen an
    accepting state.  ``packing`` is the one the states were packed with.

    A replaying cycle ends at or below its start, so by the lemma of
    ``CounterAutomaton._returning`` (it decrements every counter it
    increments and stays inside one component of every pruned control
    graph) its location is a returning one: a source at any other
    location, source 0 included, is skipped.  ``parent`` and each search's
    back-pointers hold path links."""
    guard = packing[2]
    accepting = [q in c.accepting for q, _ in states]
    returning = c._returning
    pass_after = _PASS_AFTER_EDGE_SCANS * sum(map(len, edges))
    scanned = 0
    candidates = None
    for src, (q, v) in enumerate(states):
        if q not in returning:
            continue
        if candidates is None and scanned > pass_after:
            candidates = _lasso_sources(states, edges, accepting, packing)
        if candidates is not None and not candidates[src]:
            continue
        # a key is 2 * state + (1 if an accepting state was seen)
        start_key = 2 * src + accepting[src]
        vg = v | guard
        back: dict = {start_key: None}
        queue = deque([start_key])
        while queue:
            key = queue.popleft()
            out = edges[key >> 1]
            scanned += len(out)
            for t, j in out:
                nkey = 2 * j + ((key & 1) or accepting[j])
                # tested before the skip: the start key may be hit itself
                if nkey & 1 and states[j][0] == q and (vg - states[j][1]) & guard == guard:
                    lasso = Lasso(_unlink(parent[src]), _unlink((back[key], t)))
                    if verify_lasso(c, lasso):
                        return lasso
                if nkey in back:
                    continue
                back[nkey] = (back[key], t)
                queue.append(nkey)
    return None


def _lasso_sources(states, edges, accepting, packing) -> list[bool]:
    """Which states can start a scan hit: a path of one or more steps to a
    state at the same location with a valuation at or below theirs, seeing
    an accepting state on the way (the source counts).  One pass over the
    strongly connected components, sinks first, with int bitsets."""
    n = len(states)
    reach = [0] * n  # reachable in one or more steps
    reach_acc = [0] * n  # ... by a path seeing an accepting state after the start
    for scc in sccs(range(n), [[j for _, j in out] for out in edges]):
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
    below = [1 << i for i in range(n)]
    by_location: dict = {}
    for i, (q, _) in enumerate(states):
        by_location.setdefault(q, []).append(i)
    # one sort key per counter: state index -> that counter's field
    columns = [[v & m for _, v in states].__getitem__ for m in packing[1][1:]]
    for group in by_location.values():
        if len(group) == 1:
            continue
        everyone = 0
        for i in group:
            everyone |= 1 << i
        for i in group:
            below[i] = everyone
        for value in columns:
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

    Each tree is searched depth first, a node's children last first.
    ``levels`` holds, per location, the valuations on the current branch,
    so the ancestor test looks only at the ancestors at the successor's
    location.  The trees and the spawn graph live in flat lists of ints and
    transitions, and only the lasso's paths are rebuilt from them:

    - a tree node is an index into ``node_parent`` and ``node_t``, its
      parent (-1 at the tree's root) and the transition into it;
    - a root is an id, in the order roots are spawned and their trees
      grown, so each root's spawn edges are appended together, from
      ``first_edge[id]`` on, and ``spawned_by[id]`` is the edge that
      spawned it;
    - a spawn edge is an index into ``edge_target`` (a root id),
      ``edge_leaf`` (the node it leaves) and ``edge_t``.

    With a tuple link per node and per accepting leaf instead, the 512
    machines among the first 2,000 of the buchi pool of seed 1 that reach
    the refutation took 510-600 ms in it at budget 1000, against 360-390 ms
    (shared 2-core host).
    """
    accepting = c.accepting
    ones, masks, guard = _packing(c.n_counters, budget)
    roots_at: dict = {q: {} for q in accepting}  # per location, valuation -> root id
    root_q, root_v, spawned_by = [c.initial], [0], [-1]
    if c.initial in accepting:
        roots_at[c.initial][0] = 0
    first_edge: list = []
    node_parent, node_t = [], []
    edge_target, edge_leaf, edge_t = [], [], []
    steps = 0
    for root, q in enumerate(root_q):  # grows while it is walked: a FIFO queue
        first_edge.append(len(edge_t))
        levels: dict = {}
        branch: list = []  # the levels list of each state on the branch
        stack = [(q, root_v[root], -1, 0)]  # (location, valuation, node, depth on the branch)
        while stack:
            steps += 1
            if steps > budget:
                return Verdict("unknown",
                               reason=f"refutation budget of {budget} spent")
            q, v, node, depth = stack.pop()
            while len(branch) > depth:
                branch.pop().pop()
            here = levels.setdefault(q, [])
            here.append(v)
            branch.append(here)
            depth += 1
            for t in c.outgoing(q):
                _q, _w, op, ctr, q2 = t
                # the packed step, inline as in _explore_min_graph
                if op == "inc":
                    v2 = v + ones[ctr]
                elif v & masks[ctr]:
                    if op != "dec":
                        continue
                    v2 = v - ones[ctr]
                else:
                    v2 = v  # a zero test passes, a decrement truncates at zero
                if q2 in accepting:
                    at = roots_at[q2]
                    target = at.get(v2)
                    if target is None:
                        target = at[v2] = len(root_q)
                        root_q.append(q2)
                        root_v.append(v2)
                        spawned_by.append(len(edge_t))
                    edge_target.append(target)
                    edge_leaf.append(node)
                    edge_t.append(t)
                    continue
                # a loop: any() over a generator ran the buchi machines 4-9% slower
                g2 = v2 | guard
                for a in levels.get(q2, ()):
                    if (g2 - a) & guard == guard:
                        break
                else:
                    stack.append((q2, v2, len(node_t), depth))
                    node_parent.append(node)
                    node_t.append(t)
    # terminated: emptiness unless the spawn graph has a cycle reachable from
    # the start.  A depth-first walk over root ids; each entry on it keeps
    # the spawn edge the walk took into it, the first from its parent to it.
    first_edge.append(len(edge_t))
    walk = [(0, iter(range(first_edge[0], first_edge[1])), -1)]
    on_walk = {0}
    seen = {0}
    cycle = None
    while walk and cycle is None:
        for e in walk[-1][1]:
            target = edge_target[e]
            if target in on_walk:  # the cycle from target along the walk and back
                k = next(k for k, entry in enumerate(walk) if entry[0] == target)
                cycle = [taken for *_, taken in walk[k + 1:]] + [e]
                break
            if target not in seen:
                seen.add(target)
                on_walk.add(target)
                walk.append((target, iter(range(first_edge[target], first_edge[target + 1])), e))
                break
        else:
            on_walk.discard(walk.pop()[0])
    if cycle is None:
        return EMPTY

    def path(e) -> list:
        """The transitions of spawn edge ``e``, from its root's tree root."""
        out = [edge_t[e]]
        node = edge_leaf[e]
        while node >= 0:
            out.append(node_t[node])
            node = node_parent[node]
        return out[::-1]

    hops = []
    while target:  # back to the start along the first spawn edge into each root
        hops.append(e := spawned_by[target])
        target = bisect_right(first_edge, e) - 1  # the root whose edges hold e
    lasso = Lasso(tuple(t for e in reversed(hops) for t in path(e)),
                  tuple(t for e in cycle for t in path(e)))
    if not verify_lasso(c, lasso):
        raise CertificateError("spawn cycle failed to replay")
    return Verdict("nonempty", lasso=lasso)


def _unlink(link) -> tuple:
    """The transitions of a path link, first to last."""
    out = []
    while link is not None:
        link, t = link
        out.append(t)
    return tuple(reversed(out))


def nonempty_infinite_incrementing(c: CounterAutomaton, budget: int = 100_000) -> Verdict:
    """Tri-state nonemptiness over infinite words for incrementing machines.

    A pumpable accepting cycle is a definite yes; termination of the tree
    refutation is a definite no; otherwise the budget ran out.  No complete
    positive test exists, so unknown answers are unavoidable in general.
    """
    check_budget(budget)
    lasso = _witness_search(c, budget)
    if lasso is not None:
        return Verdict("nonempty", lasso=lasso)
    return _refutation(c, budget)


def nonempty_minsky_bounded(c: CounterAutomaton, over: str = "finite",
                            budget: int = 100_000) -> Verdict:
    """Bounded search of Minsky machines by exact breadth-first search.  A
    definite yes when found.  Over finite words, exhausting the exact state
    space is a definite no, as in ``accepts_word``; the budget counts states
    taken off the queue.  Over infinite words, stages of growing size,
    the last of ``budget`` states and fewer than three times it in all, look
    for an accepting state on a cycle that reads a letter; a stage whose
    exact graph fits whole holds every reachable state, so finding no such
    cycle there is a definite no."""
    if over not in ("finite", "infinite"):
        raise PreconditionViolation(f"unknown word kind {over!r}")
    check_budget(budget)
    if over == "finite":
        found = _search(c, None, True, budget)
        if found is None:
            return Verdict("unknown", reason=f"budget of {budget} states spent")
        if found:
            return _finite_witness(found)
        return Verdict("empty", reason="exact state space exhausted")
    for cap in [cap for cap in _STAGES if cap < budget] + [budget]:
        states, edges, parent, _ = _explore_min_graph(c, cap, exact=True)
        lasso = _exact_lasso(c, states, edges, parent)
        if lasso is not None:
            return Verdict("nonempty", lasso=lasso)
        if len(states) < cap:  # the whole graph fit
            return Verdict("empty", reason="exact state space exhausted")
    return Verdict("unknown", reason=f"budget of {budget} states spent")


def _exact_lasso(c: CounterAutomaton, states, edges, parent) -> Optional[Lasso]:
    """The first accepting state on a cycle that reads a letter, with its
    shortest one: such a cycle exists when the state's strongly connected
    component has an edge that reads a letter, and stays in it."""
    src = None
    for scc in sccs(range(len(states)), [[j for _, j in out] for out in edges]):
        if any(t[1] is not None and j in scc for i in scc for t, j in edges[i]):
            first = min((i for i in scc if states[i][0] in c.accepting), default=None)
            if first is not None and (src is None or first < src):
                src, home = first, scc
    if src is None:
        return None
    # a BFS over (state, a letter read) within the component, back to src
    back: dict = {(src, False): None}
    queue = deque(back)
    while True:
        key = queue.popleft()
        for t, j in edges[key[0]]:
            nkey = (j, key[1] or t[1] is not None)
            if nkey == (src, True):
                return Lasso(_unlink(parent[src]), _unlink((back[key], t)))
            if j in home and nkey not in back:
                back[nkey] = (back[key], t)
                queue.append(nkey)


def rename_locations(c: CounterAutomaton) -> CounterAutomaton:
    """A copy with locations q0..qN, in location order; handy before
    serializing machines whose locations are not names, such as the
    integers of machines compiled by ``ra2ca``."""
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

    for _, head, line in parse_lines(text, ("alphabet:", "counters:", "init:", "accepting:")):
        if head == "alphabet:":
            sigma = parse_alphabet(line.split(":", 1)[1].split())
        elif head == "counters:":
            n_counters = parse_header_count(line)
        elif head == "init:":
            initial = line.split(":", 1)[1].strip()
            note(initial)
        elif head == "accepting:":
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
    """Graphviz text of the machine, each node labelled by its location:
    machines compiled by ``ra2ca`` are located at 0..n-1, so their nodes
    are labelled by those integers."""
    nodes = {q: {"shape": "doublecircle" if q in c.accepting else "circle", "label": q}
             for q in c.locations}
    return to_dot(name, nodes, ((q, q2, {"label": f"{w or 'eps'},{op},{ctr}"})
                                for q, w, op, ctr, q2 in c.transitions))
