"""Compiling one-register alternating automata into incrementing counter
automata that accept exactly the letter projections of their languages.

A set of automaton states at one word position is abstracted to the letter,
an at-the-end flag, the locations whose register holds the current class,
the locations with an undefined register, and a bag counting, for every
location set, how many other classes are held by exactly that set.  One
abstraction step ("big step") follows a strategy of the automaton until it
moves to the next position; the table of per-location successor pairs is
computed bottom-up over heights.

The counter machine stores the bag in counters indexed by location sets and
realizes a big step by a silent subroutine: drain each bag counter choosing
successor pairs into auxiliary pair counters, choose successors for the
current-class and empty rows, collect everything that stored the current
class into one refreshed group, then refill the bag from the auxiliaries.
Spurious increments only ever add superfluous obligations, which embeds the
faulty run into a larger legitimate one, so the language is unchanged.

A choice of a whole map is one transition.  For a drained unit of group g
it is the dec of g into one point per outcome (u1, u2) of the fold of g's
per-location choices, which then increments the pair counter of (u1, u2);
for the current-class and empty-row maps it is one silent zero test of
c_zero per pair of outcomes of their folds, straight into the tail.  The
lemma: c_zero is never incremented, so it is 0 in every exact and every
minimal-error run, and a zero test of it always fires and moves nothing.  A
chain of such tests choosing a map item by item therefore fires exactly
when one outcome of its fold does, with the same counter operations before
and after it, so the whole-map step has the same runs up to those silent
no-ops in both semantics.  Discovery already folds every group and every
core's rows, so emission only reads the fold memo.

Both variants hold the same items, (location, marked) pairs.  The
infinitary variant uses the marks for pending obligations in the style of
breakpoint constructions: a step may be declared fresh, which requires no
mark to survive at equal rank and restarts the marks on all odd-rank
successors; accepting locations record fresh steps, and words whose
obligations die out entirely are absorbed by an accepting sink.  The finite
variant is the same construction with the single mode None, in which no
mark is ever set.

Before anything is emitted, one cut runs on the small graph of whole big
steps, built from the ready points and cores discovery found: a ready
point runs the core of each letter, and a core steps to the ready points
its steps end at.  A ready point with a discharge guess is good; in the
infinite variant so is one on a cycle through a ready point with flag
True, whose main locations accept and are entered on a letter.  The cut
keeps the nodes that the initial ready point reaches and that reach a good
ready point; only those ready points and cores are emitted, with the
initial one, and no transition leads into a skipped ready point.  A
drain phase keeps only the marks it can exit with (a fresh step never
marks), the map steps start at those exits, and the accepting points only
exist once a discharge guess reaches them.  The
finite machine is then cut, by one backward pass, to the locations that
can reach an accepting one.  No cut changes the language.  An accepted
finite run starts at the initial location and ends at an accepting one, so
every location on it is both reachable and able to accept, and a location
off every such path carries no accepted run.  An accepted infinite run
ends each big step at a ready point, and it either enters the accepting
sink by a discharge guess or visits accepting main locations, so ready
points with flag True, infinitely often; so every ready point and core it
passes is reached and reaches a good ready point.  What the cut skips
cannot reach an accepting location, so the backward pass would drop it
anyway, and the finite machine is the same with or without it.  The kept
locations keep their order and are numbered 0..n-1.  If the initial
location cannot accept, the finite machine is the canonical empty one: a
single location, not accepting, with a self-loop per letter that
zero-tests the only counter.  The infinite machine keeps the points of
kept cores and of the shared tail that cannot take part in an accepting run.

The points that collect the refreshed group and refill the bag (the tail)
name no core: only their mode, pair index, group so far, empty-row set and
mark decide their moves, so the cores share them.  This keeps the language:
forgetting the core index of per-core copies maps runs onto runs both ways
with the same counter operations, and no tail point is accepting.
"""

from __future__ import annotations

from .ca import CounterAutomaton
from .errors import ClassMismatch
from .graph import adjacency, cyclic, reach, sccs
from .ra import (
    BEnd, BLetter, BUp, RegisterAutomaton, TAnd, TBottom, TOr, TStore, TTest,
    TTop, classify_ra, relabel, validate,
)

EMPTY = frozenset()


class SuccTable:
    """Per-location big-step successor pairs (kept set, refreshed set),
    computed bottom-up over heights and memoized."""

    def __init__(self, a: RegisterAutomaton):
        self.a = a
        self.memo: dict = {}

    def get(self, letter: str, at_end: bool, uu: bool, q) -> frozenset:
        memo = self.memo
        top = (letter, at_end, uu, q)
        out = memo.get(top)
        if out is not None:
            return out
        # an explicit stack instead of recursion, since chains of in-place
        # steps can be thousands long: an entry stays on the stack below the
        # entries its row is made of until they are all memoized, so one
        # that is still missing some on its second visit lies on a cycle
        delta = self.a.delta
        stack = [(uu, q)]
        waiting: set = set()
        while stack:
            uu, q = stack[-1]
            key = (letter, at_end, uu, q)
            if key in memo:
                stack.pop()
                continue
            tf = delta[q]
            parts = self._parts(letter, at_end, uu, tf)
            rows = [memo.get((letter, at_end) + p) for p in parts]
            if None in rows:
                if key in waiting:
                    raise ClassMismatch(f"cycle of in-place steps through {q!r}")
                waiting.add(key)
                stack.extend(p for p, row in zip(parts, rows) if row is None)
                continue
            stack.pop()
            memo[key] = self._row(at_end, uu, tf, rows)
        return memo[top]

    @staticmethod
    def _parts(letter: str, at_end: bool, uu: bool, tf) -> tuple:
        """The (uu, location) entries whose rows make up the row of tf."""
        t = type(tf)
        if t is TTest:
            g = tf.guard
            if isinstance(g, BLetter):
                val = g.letter == letter
            elif isinstance(g, BEnd):
                val = at_end
            elif isinstance(g, BUp):
                val = uu
            else:
                raise ClassMismatch("beginning test in a one-way automaton")
            return ((uu, tf.then if val else tf.other),)
        if t is TStore:
            return ((True, tf.target),)
        if t is TAnd or t is TOr:
            return ((uu, tf.left), (uu, tf.right))
        return ()

    @staticmethod
    def _row(at_end: bool, uu: bool, tf, rows: list) -> frozenset:
        t = type(tf)
        if t is TAnd:
            left, right = rows
            return frozenset((y1 | y2, z1 | z2) for (y1, z1) in left for (y2, z2) in right)
        if t is TOr:
            return rows[0] | rows[1]
        if rows:  # a test or a store: the row of the location it continues at
            return rows[0]
        if t is TTop:
            return frozenset({(frozenset(), frozenset())})
        if t is TBottom:
            return frozenset()
        if not tf.forward:
            raise ClassMismatch("backward move in a one-way automaton")
        if at_end:
            return frozenset({(frozenset(), frozenset())}) if tf.weak else frozenset()
        if uu:
            return frozenset({(frozenset(), frozenset({tf.target}))})
        return frozenset({(frozenset({tf.target}), frozenset())})


def _require_1ara1(a: RegisterAutomaton) -> None:
    c = classify_ra(a)
    if not c.one_way:
        raise ClassMismatch("expected a one-way automaton")
    if a.n_registers > 1:
        raise ClassMismatch("expected at most one register")


# ---------------------------------------------------------------------------
# The counter machine


class _Builder:
    def __init__(self, a: RegisterAutomaton, infinite: bool):
        # program points embed location sets, and hashing deep formula
        # locations over and over dominates the build: use small integers,
        # checked on the copy.  A location outside the list, such as a
        # dangling target, gets a number past it, which validate reports.
        # Most mentions of a location are the very object in the list, so
        # objects are looked up by identity before they are hashed.
        index: dict = {}
        by_id: dict = {}

        def number(q):
            k = by_id.get(id(q))
            if k is None:
                k = by_id[id(q)] = index.setdefault(q, len(index))
            return k

        b = relabel(a, number)
        _require_1ara1(b)
        if validate(b):  # the first violation, in the caller's names
            raise ClassMismatch(f"invalid automaton: {validate(a)[0]}")
        self.a = a = b
        self.infinite = infinite
        self.succ = SuccTable(a)
        self.letters = a.alphabet.letters
        self.modes = ("stay", "fresh") if infinite else (None,)
        self.marks = (False, True) if infinite else (False,)
        self.groups: list = []
        self.gset: set = set()
        self.pairs: list = []
        self.pset: set = set()
        self.fold_cache: dict = {}
        self.choice_cache: dict = {}
        self.union_cache: dict = {}
        self.blocks: dict = {}
        self.stats = {"succ_entries": 0}

    # --- item plumbing (items are (location, marked) pairs; the finite
    # variant has the one mode None, in which nothing is ever marked)

    def init_items(self) -> frozenset:
        q = self.a.initial
        return frozenset({(q, self.infinite and self.a.rank[q] % 2 == 1)})

    def norm(self, items) -> frozenset:
        best: dict = {}
        for q, t in items:
            best[q] = best.get(q, False) or t
        return frozenset(best.items())

    def union(self, u: frozenset, y: frozenset) -> frozenset:
        """norm(u | y), memoized: the same unions recur in every fold and
        every core."""
        key = (u, y)
        out = self.union_cache.get(key)
        if out is None:
            out = self.union_cache[key] = self.norm(u | y)
        return out

    def item_choices(self, letter: str, uu: bool, item, mode) -> list:
        """(kept items, refreshed items, mark survived) per choice; choices
        that would keep a mark alive are dropped in fresh mode."""
        key = (letter, uu, item, mode)
        hit = self.choice_cache.get(key)
        if hit is not None:
            return hit
        q, tag = item
        out = []
        for (y, z) in self.succ.get(letter, False, uu, q):
            blocked = False
            nat = False

            def convert(qs):
                nonlocal blocked, nat
                items2 = []
                for q2 in qs:
                    same_rank = tag and self.a.rank[q2] == self.a.rank[q]
                    if mode == "fresh":
                        if same_rank:
                            blocked = True
                        items2.append((q2, self.a.rank[q2] % 2 == 1))
                    else:
                        if same_rank:
                            nat = True
                        items2.append((q2, same_rank))
                return self.norm(items2)

            y2, z2 = convert(y), convert(z)
            if not blocked:
                out.append((y2, z2, nat))
        self.choice_cache[key] = out
        return out

    def fold(self, letter: str, uu: bool, items: frozenset, mode) -> list:
        """All (kept union, refreshed union, mark survived) triples."""
        key = (letter, uu, items, mode)
        hit = self.fold_cache.get(key)
        if hit is not None:
            return hit
        acc = {(frozenset(), frozenset(), False): None}
        for item in sorted(items):
            per = self.item_choices(letter, uu, item, mode)
            if not per:
                acc = {}
                break
            acc = dict.fromkeys((self.union(u1, y), self.union(u2, z), n1 or n2)
                                for (u1, u2, n1) in acc for (y, z, n2) in per)
        out = list(acc)
        self.fold_cache[key] = out
        return out

    def add_group(self, g: frozenset) -> bool:
        if g and g not in self.gset:
            self.gset.add(g)
            self.groups.append(g)
            return True
        return False

    def add_pair(self, p: tuple) -> bool:
        if p not in self.pset:
            self.pset.add(p)
            self.pairs.append(p)
            return True
        return False

    # --- phase A: discover reachable mains, groups and pairs

    def discover(self):
        # insertion-ordered dicts serve as sets: everything is walked and
        # later emitted in discovery order, which makes the machine
        # independent of hash seeds without sorting.  Sweeps repeat until
        # nothing is added.  Each (core, mode) keeps its refreshed groups
        # (qddags) and how far it has read the groups, the pairs, its
        # qddags and the refills, so a sweep hands it only what was added
        # since its last visit: what it skips it added itself before, and
        # everything new is added in the order of a sweep that re-derives
        # it all, so the counters keep their numbers.
        readys = {(frozenset(), self.init_items(), False): None}
        mains: dict = {}
        visits: dict = {}
        n_run = 0  # the ready points whose cores are in mains
        changed = True
        while changed:
            changed = False
            for (qeq, qemp, _fl) in list(readys)[n_run:]:
                for letter in self.letters:
                    core = (letter, qeq, qemp)
                    if core not in mains:
                        mains[core] = None
                        changed = True
            n_run = len(readys)
            for core in mains:
                letter, qeq, qemp = core
                for mode in self.modes:
                    key = (core, mode)
                    if key not in visits:
                        eqf = self.fold(letter, True, qeq, mode)
                        empf = self.fold(letter, False, qemp, mode)
                        qddags = dict.fromkeys(self.union(e2, m2)
                                               for (_e1, e2, _n1) in eqf for (_m1, m2, _n2) in empf)
                        m1s = dict.fromkeys(m1 for (m1, _m2, _n) in empf)
                        visits[key] = (qddags, m1s, 0, 0, 0, 0)
                    qddags, m1s, n_groups, n_pairs, n_qddags, n_refills = visits[key]
                    groups = self.groups[n_groups:]
                    for g in groups:
                        for (u1, u2, _n) in self.fold(letter, False, g, mode):
                            changed |= self.add_pair((u1, u2))
                    pairs = self.pairs[n_pairs:]
                    for (pu1, pu2) in pairs:
                        qddags.update(dict.fromkeys([self.union(v, pu2) for v in qddags]))
                        changed |= self.add_group(pu1)
                    for v in list(qddags)[n_qddags:]:
                        changed |= self.add_group(v)
                    refills = [EMPTY, *self.groups]
                    flag = mode == "fresh"
                    for m1 in m1s:
                        for qeq2 in refills[n_refills:]:
                            r = (qeq2, m1, flag)
                            if r not in readys:
                                readys[r] = None
                                changed = True
                    visits[key] = (qddags, m1s, n_groups + len(groups), n_pairs + len(pairs),
                                   len(qddags), len(refills))
        self.readys = readys
        self.mains = mains

    # --- phase B: emit locations and transitions

    def counter_ids(self):
        self.c_zero = 1
        self.c_group = {g: 2 + k for k, g in enumerate(self.groups)}
        base = 2 + len(self.groups)
        self.c_pair = {p: base + k for k, p in enumerate(self.pairs)}
        self.n_counters = 1 + len(self.groups) + len(self.pairs)

    def loc(self, x) -> int:
        k = self.locs.get(x)
        if k is None:
            k = self.locs[x] = self.n_locs
            self.n_locs += 1
        return k

    def add(self, src, letter, op, ctr, dst) -> None:
        self.trans[(self.loc(src), letter, op, ctr, self.loc(dst))] = None

    def noop(self, src, dst, letter=None) -> None:
        self.add(src, letter, "ifz", self.c_zero, dst)

    def ends(self, core: tuple) -> dict:
        """The (m1, flag) ends of a core's steps: each empty-row set m1 its
        folds can pick, in a mode whose eq fold is not empty, and in an
        infinite stay step only if the step can end marked."""
        letter, qeq, qemp = core
        out: dict = {}
        for mode in self.modes:
            eqf = self.fold(letter, True, qeq, mode)
            if not eqf:
                continue
            empf = self.fold(letter, False, qemp, mode)
            # entry_nats always holds False (the drain can exit unmarked)
            if (mode == "stay" and True not in self.entry_nats(letter, mode)
                    and not any(ne for _e1, _e2, ne in eqf)):
                empf = [m for m in empf if m[2]]
            out.update(dict.fromkeys((m1, mode == "fresh") for m1, _m2, _nm in empf))
        return out

    def items_ok(self, items, letter: str, at_end: bool, uu: bool) -> bool:
        """Whether every item can discharge, by a successor pair that keeps
        and refreshes nothing."""
        get = self.succ.get
        return all((EMPTY, EMPTY) in get(letter, at_end, uu, q) for q, _t in items)

    def useful(self) -> tuple[dict, set, dict]:
        """The one cut of the graph of whole big steps, built from what
        discover found: a ready point runs the core of each letter, and a
        core steps to (g, m1, flag) for each of its ends and each g of
        (EMPTY, *groups).  A node is kept when the initial ready point
        reaches it and it reaches a good ready point: one with a discharge
        guess or, in the infinite variant, one on a cycle through a ready
        point with flag True, whose main locations accept and are entered
        on a letter.  Returns the kept ready points in their order, with
        the initial one, the set of kept nodes, and the discharge guesses
        of each reached ready point."""
        refills = (EMPTY, *self.groups)
        edges: dict = {r: [(letter, r[0], r[1]) for letter in self.letters] for r in self.readys}
        edges.update((core, [(g, m1, flag) for m1, flag in self.ends(core) for g in refills])
                     for core in self.mains)
        start = (EMPTY, self.init_items(), False)
        reached = reach(edges, (start,))
        at_ends = (False,) if self.infinite else (False, True)
        finals = {r: [(letter, at_end) for letter in self.letters for at_end in at_ends
                      if self.items_ok(r[0], letter, at_end, True)
                      and self.items_ok(r[1], letter, at_end, False)]
                  for r in self.readys if r in reached}
        good = {r for r, fins in finals.items() if fins}
        if self.infinite:
            # a core's third field is a frozenset, so only a ready point has
            # True there
            for scc in sccs(edges, edges):
                if cyclic(scc, edges) and any(x[2] is True for x in scc):
                    good.update(x for x in scc if x in finals)
        able = reach(adjacency((y, x) for x, ys in edges.items() for y in ys), good)
        kept = {x for x in reached if x in able}
        self.stats["skipped"] = len(reached) - len(kept) - (start not in kept)
        return {r: None for r in finals if r in kept or r == start}, kept, finals

    def emit(self) -> CounterAutomaton:
        self.counter_ids()
        # locations are numbered in discovery order.  A named program point
        # (a tuple; abstract cores appear by their index in self.mains)
        # becomes the next integer on first sight; the points of a drain
        # phase are named by nothing else, so each core gets a copy of the
        # phase of its (letter, mode) as a run of fresh integers (emit_drain);
        # the tail, which names no core, comes last (emit_tail)
        self.locs: dict = {}
        self.trans: dict = {}
        self.n_locs = 0
        locs, loc, add, noop = self.locs, self.loc, self.add, self.noop
        self.live, kept, finals = self.useful()
        bad_groups_cache: dict = {}

        def bad_groups(letter, at_end):
            key = (letter, at_end)
            if key not in bad_groups_cache:
                bad_groups_cache[key] = [
                    g for g in self.groups
                    if not self.items_ok(g, letter, at_end, False)
                ]
            return bad_groups_cache[key]

        # the accepting points are emitted only if a discharge guess is made
        guessed = {at_end for fins in finals.values() for _letter, at_end in fins}
        sink = ("accept_sink",)
        accept_end = ("accept_end",)
        accept_more = ("accept_more",)
        if False in guessed:
            for letter in self.letters:
                noop(sink, sink, letter)
        if True in guessed:
            loc(accept_end)
        if False in guessed and not self.infinite:
            for letter in self.letters:
                noop(accept_more, sink, letter)

        # ready locations: read the next letter or guess the discharge
        for (qeq, qemp, flag) in self.live:
            r = ("ready", qeq, qemp, flag)
            loc(r)  # a kept initial point may have no transition
            for letter in self.letters:
                if (letter, qeq, qemp) in kept:
                    noop(r, ("main", letter, qeq, qemp, flag), letter)
            for letter, at_end in finals[(qeq, qemp, flag)]:
                cur = r
                for k, g in enumerate(bad_groups(letter, at_end)):
                    nxt = ("final", qeq, qemp, flag, letter, at_end, k)
                    add(cur, None, "ifz", self.c_group[g], nxt)
                    cur = nxt
                if self.infinite:
                    noop(cur, sink, letter)
                else:
                    noop(cur, accept_end if at_end else accept_more, letter)

        # main locations: run the big-step subroutine
        into_tail: list = []
        for ci, core in enumerate(self.mains):
            if core not in kept:
                continue
            letter, qeq, qemp = core
            for flag in self.marks:
                m = ("main", letter, qeq, qemp, flag)
                if m not in locs:
                    continue  # unreachable flag variant
                for mode in self.modes:
                    if self.groups:
                        entry = ("drain", ci, mode, 0, False)
                    else:
                        entry = ("eqmap", ci, mode, 0, EMPTY, False)
                    noop(m, entry)
            for mode in self.modes:
                if self.groups:
                    self.emit_drain(ci, letter, mode)
                into_tail += self.map_steps(ci, core, mode)
        self.emit_tail(into_tail)

        initial = locs[("ready", EMPTY, self.init_items(), False)]
        if self.infinite:
            accepting = frozenset(
                k for x, k in locs.items()
                if x == sink or (x[0] == "main" and x[4])
            )
            ca = CounterAutomaton(self.a.alphabet, range(self.n_locs), initial,
                                  self.n_counters, tuple(self.trans), accepting)
        else:
            accepting = frozenset(k for x, k in locs.items() if x in (accept_end, sink))
            ca = self.trim(initial, accepting)
        self.stats.update({
            "locations": len(ca.locations),
            "transitions": len(ca.transitions),
            "counters": ca.n_counters,
            "groups": len(self.groups),
            "pairs": len(self.pairs),
            "succ_entries": len(self.succ.memo),
        })
        return ca

    def trim(self, initial: int, accepting: frozenset) -> CounterAutomaton:
        """The finite machine cut to the locations that can reach an
        accepting one, renumbered in order; the canonical empty machine if
        the initial location cannot."""
        keep = reach(adjacency((q2, q) for q, _w, _op, _c, q2 in self.trans), accepting)
        self.stats["trimmed"] = self.n_locs - len(keep)
        if initial not in keep:
            return empty_machine(self.a.alphabet)
        new = {q: k for k, q in enumerate(sorted(keep))}
        trans = tuple((new[q], w, op, c, new[q2]) for q, w, op, c, q2 in self.trans
                      if q in new and q2 in new)
        return CounterAutomaton(self.a.alphabet, range(len(new)), new[initial],
                                self.n_counters, trans, frozenset(map(new.get, accepting)))

    def entry_nats(self, letter: str, mode) -> tuple:
        """The marks with which a core's step can enter its map phase."""
        if not self.groups:
            return (False,)
        return tuple(nat for nat, _k in self.drain_block(letter, mode)[2])

    def drain_block(self, letter: str, mode) -> tuple:
        """The drain phase of a core, which depends on its letter and the
        mode only: drain each bag counter, taking one whole-map step per
        outcome (u1, u2, n) of the group's fold for every drained unit, a
        dec of the group into the point (gi, (u1, u2), mark) and an inc of
        the pair back to the drain point of that mark.  Returns the
        transitions over local ids, the name of each local id, the entry 0
        first, and the (mark, local id) of each exit into the map phase.
        Only what the entry reaches is kept (a fresh step never marks, so
        there the marked half goes), and local ids follow first sight, the
        order in which emit would number the points."""
        hit = self.blocks.get((letter, mode))
        if hit is not None:
            return hit
        ids: dict = {}
        trans: dict = {}

        def lid(x) -> int:
            k = ids.get(x)
            if k is None:
                k = ids[x] = len(ids)
            return k

        def add(src, op, ctr, dst):
            trans[(lid(src), op, ctr, lid(dst))] = None

        n_groups = len(self.groups)

        def drain(gi, nat):
            return ("drain", gi, nat) if gi < n_groups else ("exit", nat)

        lid(drain(0, False))  # the entry, local id 0
        for nat in self.marks:
            for gi, g in enumerate(self.groups):
                d = drain(gi, nat)
                add(d, "ifz", self.c_group[g], drain(gi + 1, nat))
                for (u1, u2, n) in self.fold(letter, False, g, mode):
                    assert (u1, u2) in self.pset, "pair escaped discovery"
                    mid = (gi, (u1, u2), nat or n)
                    add(d, "dec", self.c_group[g], mid)
                    add(mid, "inc", self.c_pair[(u1, u2)], drain(gi, nat or n))

        reached = reach(adjacency((s, d) for s, _op, _c, d in trans), (0,))
        new = {k: j for j, k in enumerate(sorted(reached))}
        block = tuple((new[s], op, c, new[d]) for s, op, c, d in trans if s in new)
        points = tuple(x for x, k in ids.items() if k in new)
        exits = tuple((x[1], new[k]) for x, k in ids.items() if x[0] == "exit" and k in new)
        out = self.blocks[(letter, mode)] = (block, points, exits)
        return out

    def emit_drain(self, ci: int, letter: str, mode) -> None:
        """Core ci's copy of the drain phase: the entry is named by the main
        locations, the other points follow as fresh integers, and the exits
        are named for the map phase."""
        block, points, exits = self.drain_block(letter, mode)
        base = self.n_locs
        ids = [self.locs[("drain", ci, mode, 0, False)], *range(base, base + len(points) - 1)]
        self.n_locs = base + len(points) - 1
        self.trans.update(dict.fromkeys([(ids[s], None, op, c, ids[d]) for s, op, c, d in block]))
        for nat, k in exits:
            self.locs[("eqmap", ci, mode, 0, EMPTY, nat)] = ids[k]

    def map_steps(self, ci: int, core: tuple, mode) -> list:
        """The whole-map steps of core ci, as (location, pair entry) for
        emit_tail: from the map entry of each mark its drain exits with,
        one per outcome of the current-class fold and of the empty-row
        fold, straight to the pair entry of the shared tail."""
        letter, qeq, qemp = core
        eqf = self.fold(letter, True, qeq, mode)
        empf = self.fold(letter, False, qemp, mode)
        return [(self.loc(("eqmap", ci, mode, 0, EMPTY, nat)),
                 ("pair", mode, 0, self.union(e2, m2), m1, nat or n1 or n2))
                for nat in self.entry_nats(letter, mode)
                for (_e1, e2, n1) in eqf for (m1, m2, n2) in empf]

    def emit_tail(self, into_tail: list) -> None:
        """Add the whole-map steps (location, pair entry) of into_tail,
        then walk the tail from those entries, once for the whole machine:
        collect the refreshed group from the pair counters ("pair", "bump"),
        refill the bag from them ("refill", "refillmid") and move to a live
        ready point."""
        add, c_zero, c_pair, c_group = self.add, self.c_zero, self.c_pair, self.c_group
        refill_ops = [(EMPTY, "ifz", c_zero), *((g, "dec", c_group[g]) for g in self.groups)]
        for src, dst in into_tail:
            self.trans[(src, None, "ifz", c_zero, self.loc(dst))] = None
        stack = list(dict.fromkeys(dst for _src, dst in into_tail))
        seen: set = set()
        while stack:
            src = stack.pop()
            if src in seen:
                continue
            seen.add(src)
            if src[0] == "pair":
                _, mode, pi, qddag, qemp1, nat = src
                if pi == len(self.pairs):
                    assert not qddag or qddag in self.gset, "group escaped discovery"
                    op, ctr = ("inc", c_group[qddag]) if qddag else ("ifz", c_zero)
                    stack.append(("refill", mode, 0, qemp1, nat))
                    add(src, None, op, ctr, stack[-1])
                    continue
                p = self.pairs[pi]
                stack.append(("pair", mode, pi + 1, qddag, qemp1, nat))
                add(src, None, "ifz", c_pair[p], stack[-1])
                mid = ("bump", mode, pi, qddag, qemp1, nat)
                add(src, None, "dec", c_pair[p], mid)
                stack.append(("pair", mode, pi + 1, self.union(qddag, p[1]), qemp1, nat))
                add(mid, None, "inc", c_pair[p], stack[-1])
                continue
            _, mode, pi, qemp1, nat = src
            if pi < len(self.pairs):
                p = self.pairs[pi]
                stack.append(("refill", mode, pi + 1, qemp1, nat))
                add(src, None, "ifz", c_pair[p], stack[-1])
                mid = ("refillmid", mode, pi, qemp1, nat)
                add(src, None, "dec", c_pair[p], mid)
                # one unit of the pair back into its kept group
                op, ctr = ("inc", c_group[p[0]]) if p[0] else ("ifz", c_zero)
                add(mid, None, op, ctr, src)
            elif mode != "stay" or nat:  # a stay step must end marked
                flag = mode == "fresh"
                for g, op, ctr in refill_ops:
                    if (g, qemp1, flag) in self.live:
                        add(src, None, op, ctr, ("ready", g, qemp1, flag))


def empty_machine(alphabet) -> CounterAutomaton:
    """The canonical empty machine: one location, not accepting, with a
    self-loop per letter that zero-tests counter 1, the only counter."""
    return CounterAutomaton(alphabet, (0,), 0, 1,
                            tuple((0, letter, "ifz", 1, 0) for letter in alphabet.letters),
                            frozenset())


def build_ca_finite(a: RegisterAutomaton) -> CounterAutomaton:
    """An incrementing machine accepting exactly the letter projections of
    the finite data words the automaton accepts."""
    return _build(a, infinite=False)[0]


def build_ca_infinite(a: RegisterAutomaton) -> CounterAutomaton:
    """The infinitary variant, accepting by visiting marked locations
    infinitely often."""
    return _build(a, infinite=True)[0]


def _build(a: RegisterAutomaton, infinite: bool):
    """The machine of either variant and the stats of its build."""
    b = _Builder(a, infinite)
    b.discover()
    ca = b.emit()
    return ca, dict(b.stats)
