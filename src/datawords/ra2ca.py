"""Compiling one-register alternating automata into incrementing counter
automata that accept exactly the letter projections of their languages.

A set of automaton states at one word position is abstracted to the letter,
an at-the-end flag, the locations whose register holds the current class,
the locations with an undefined register, and a bag counting, for every
location set, how many other classes are held by exactly that set.  One
abstraction step ("big step") follows a strategy of the automaton until it
moves to the next position; the table of per-location successor pairs is
computed by recursion over heights.

The counter machine stores the bag in counters indexed by location sets and
realizes a big step by a silent subroutine: drain each bag counter choosing
successor pairs into auxiliary pair counters, choose successors for the
current-class and empty rows, collect everything that stored the current
class into one refreshed group, then refill the bag from the auxiliaries.
Spurious increments only ever add superfluous obligations, which embeds the
faulty run into a larger legitimate one, so the language is unchanged.

The infinitary variant tags location sets with pending-obligation marks in
the style of breakpoint constructions: a step may be declared fresh, which
requires no mark to survive at equal rank and restarts the marks on all
odd-rank successors; accepting locations record fresh steps, and words whose
obligations die out entirely are absorbed by an accepting sink.
"""

from __future__ import annotations

from .ca import CounterAutomaton
from .errors import ClassMismatch
from .ra import (
    BEnd, BLetter, BUp, RegisterAutomaton, TAnd, TBottom, TOr, TStore, TTest,
    TTop, classify_ra, relabel, validate,
)

class SuccTable:
    """Per-location big-step successor pairs (kept set, refreshed set),
    computed by recursion over heights and memoized."""

    def __init__(self, a: RegisterAutomaton):
        self.a = a
        self.memo: dict = {}

    def get(self, letter: str, at_end: bool, uu: bool, q) -> frozenset:
        key = (letter, at_end, uu, q)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        tf = self.a.delta[q]
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
            out = self.get(letter, at_end, uu, tf.then if val else tf.other)
        elif t is TStore:
            out = self.get(letter, at_end, True, tf.target)
        elif t is TAnd:
            left = self.get(letter, at_end, uu, tf.left)
            right = self.get(letter, at_end, uu, tf.right)
            out = frozenset((y1 | y2, z1 | z2) for (y1, z1) in left for (y2, z2) in right)
        elif t is TOr:
            out = self.get(letter, at_end, uu, tf.left) | self.get(letter, at_end, uu, tf.right)
        elif t is TTop:
            out = frozenset({(frozenset(), frozenset())})
        elif t is TBottom:
            out = frozenset()
        else:
            if not tf.forward:
                raise ClassMismatch("backward move in a one-way automaton")
            if at_end:
                out = frozenset({(frozenset(), frozenset())}) if tf.weak else frozenset()
            elif uu:
                out = frozenset({(frozenset(), frozenset({tf.target}))})
            else:
                out = frozenset({(frozenset({tf.target}), frozenset())})
        self.memo[key] = out
        return out


def succ_table(a: RegisterAutomaton, letter: str, at_end: bool, uu: bool, q) -> frozenset:
    """The set of (kept, refreshed) location-set pairs for one location."""
    _require_1ara1(a)
    out = SuccTable(a).get(letter, at_end, uu, q)
    if uu:
        assert all(not y for (y, _z) in out), "kept side must be empty when uu holds"
    return out


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
        _require_1ara1(a)
        errs = validate(a)
        if errs:
            raise ClassMismatch(f"invalid automaton: {errs[0]}")
        # program points embed location sets, and hashing deep formula
        # locations over and over dominates the build: use small integers
        a = relabel(a, {q: k for k, q in enumerate(a.locations)}.__getitem__)
        self.a = a
        self.infinite = infinite
        self.succ = SuccTable(a)
        self.letters = a.alphabet.letters
        self.modes = ("stay", "fresh") if infinite else (None,)
        self.groups: list = []
        self.gset: set = set()
        self.pairs: list = []
        self.pset: set = set()
        self.fold_cache: dict = {}
        self.choice_cache: dict = {}
        self.stats = {"succ_entries": 0}

    # --- item plumbing (items are locations, or (location, marked) pairs)

    def init_items(self) -> frozenset:
        if self.infinite:
            return frozenset({(self.a.initial, self.a.rank[self.a.initial] % 2 == 1)})
        return frozenset({self.a.initial})

    def norm(self, items) -> frozenset:
        if not self.infinite:
            return frozenset(items)
        best: dict = {}
        for q, t in items:
            best[q] = best.get(q, False) or t
        return frozenset(best.items())

    def item_choices(self, letter: str, uu: bool, item, mode) -> list:
        """(kept items, refreshed items, mark survived) per choice; choices
        that would keep a mark alive are dropped in fresh mode."""
        key = (letter, uu, item, mode)
        hit = self.choice_cache.get(key)
        if hit is not None:
            return hit
        q = item[0] if self.infinite else item
        tag = item[1] if self.infinite else False
        out = []
        for (y, z) in self.succ.get(letter, False, uu, q):
            if not self.infinite:
                out.append((frozenset(y), frozenset(z), False))
                continue
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
            acc = dict.fromkeys((self.norm(u1 | y), self.norm(u2 | z), n1 or n2)
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
        # independent of hash seeds without sorting
        readys = {(frozenset(), self.init_items(), False): None}
        mains: dict = {}
        changed = True
        while changed:
            changed = False
            for (qeq, qemp, _fl) in readys:
                for letter in self.letters:
                    core = (letter, qeq, qemp)
                    if core not in mains:
                        mains[core] = None
                        changed = True
            for core in mains:
                letter, qeq, qemp = core
                for mode in self.modes:
                    eqf = self.fold(letter, True, qeq, mode)
                    empf = self.fold(letter, False, qemp, mode)
                    for g in list(self.groups):
                        for (u1, u2, _n) in self.fold(letter, False, g, mode):
                            changed |= self.add_pair((u1, u2))
                    qddags = dict.fromkeys(self.norm(e2 | m2)
                                           for (_e1, e2, _n1) in eqf for (_m1, m2, _n2) in empf)
                    for (pu1, pu2) in list(self.pairs):
                        qddags.update(dict.fromkeys([self.norm(v | pu2) for v in qddags]))
                        changed |= self.add_group(pu1)
                    for v in qddags:
                        changed |= self.add_group(v)
                    emp_values = dict.fromkeys(m1 for (m1, _m2, _n) in empf)
                    flag = (mode == "fresh") if self.infinite else False
                    for m1 in emp_values:
                        for qeq2 in [frozenset()] + self.groups:
                            r = (qeq2, m1, flag)
                            if r not in readys:
                                readys[r] = None
                                changed = True
        self.readys = readys
        self.mains = mains

    # --- phase B: emit locations and transitions

    def counter_ids(self):
        self.c_zero = 1
        self.c_group = {g: 2 + k for k, g in enumerate(self.groups)}
        base = 2 + len(self.groups)
        self.c_pair = {p: base + k for k, p in enumerate(self.pairs)}
        self.n_counters = 1 + len(self.groups) + len(self.pairs)
        self.sorted_groups = [sorted(g) for g in self.groups]

    def emit(self) -> CounterAutomaton:
        self.counter_ids()
        trans: dict = {}
        # each program point becomes the next integer on first sight, so a
        # transition hashes its structured endpoints once
        locs: dict = {}

        def loc(x) -> int:
            k = locs.get(x)
            if k is None:
                k = locs[x] = len(locs)
            return k

        def add(src, letter, op, ctr, dst):
            trans[(loc(src), letter, op, ctr, loc(dst))] = None

        def noop(src, dst, letter=None):
            add(src, letter, "ifz", self.c_zero, dst)

        sink = ("accept_sink",)
        for letter in self.letters:
            noop(sink, sink, letter)
        accept_end = ("accept_end",)
        accept_more = ("accept_more",)
        if not self.infinite:
            loc(accept_end)
            for letter in self.letters:
                noop(accept_more, sink, letter)

        ok_eq_cache: dict = {}
        ok_emp_cache: dict = {}
        bad_groups_cache: dict = {}

        def discharged(letter, at_end, uu, q) -> bool:
            return (frozenset(), frozenset()) in self.succ.get(letter, at_end, uu, q)

        def items_ok(items, letter, at_end, uu) -> bool:
            qs = [i[0] if self.infinite else i for i in items]
            return all(discharged(letter, at_end, uu, q) for q in qs)

        def bad_groups(letter, at_end):
            key = (letter, at_end)
            if key not in bad_groups_cache:
                bad_groups_cache[key] = [
                    g for g in self.groups
                    if not items_ok(g, letter, at_end, False)
                ]
            return bad_groups_cache[key]

        # ready locations: read the next letter or guess the discharge
        for (qeq, qemp, flag) in self.readys:
            r = ("ready", qeq, qemp, flag)
            for letter in self.letters:
                noop(r, ("main", letter, qeq, qemp, flag), letter)
            ends = (False,) if self.infinite else (False, True)
            for letter in self.letters:
                for at_end in ends:
                    if not items_ok(qeq, letter, at_end, True):
                        continue
                    if not items_ok(qemp, letter, at_end, False):
                        continue
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
        for core in self.mains:
            letter, qeq, qemp = core
            for flag in ((False, True) if self.infinite else (False,)):
                m = ("main", letter, qeq, qemp, flag)
                if m not in locs:
                    continue  # unreachable flag variant
                for mode in self.modes:
                    if self.groups:
                        entry = ("drain", core, mode, 0, False)
                    else:
                        entry = ("eqmap", core, mode, 0, frozenset(), False)
                    noop(m, entry)
            for mode in self.modes:
                self.emit_subroutine(core, mode, add, noop)

        initial = ("ready", frozenset(), self.init_items(), False)
        assert initial in locs
        if self.infinite:
            accepting = frozenset(
                k for x, k in locs.items()
                if x == sink or (x[0] == "main" and x[4])
            )
        else:
            accepting = frozenset(k for x, k in locs.items() if x in (accept_end, sink))
        ca = CounterAutomaton(self.a.alphabet, range(len(locs)), locs[initial],
                              self.n_counters, tuple(trans), accepting)
        self.stats.update({
            "locations": len(locs),
            "transitions": len(trans),
            "counters": self.n_counters,
            "groups": len(self.groups),
            "pairs": len(self.pairs),
            "succ_entries": len(self.succ.memo),
        })
        return ca

    def emit_subroutine(self, core, mode, add, noop):
        letter, qeq, qemp = core

        def drain(gi, nat):
            if gi == len(self.groups):
                return ("eqmap", core, mode, 0, frozenset(), nat)
            return ("drain", core, mode, gi, nat)

        for nat in ((False, True) if self.infinite else (False,)):
            for gi, g in enumerate(self.groups):
                d = ("drain", core, mode, gi, nat)
                add(d, None, "ifz", self.c_group[g], drain(gi + 1, nat))
                add(d, None, "dec", self.c_group[g],
                    ("dmap", core, mode, gi, 0, frozenset(), frozenset(), nat))

        # choose a map for one drained unit
        seen_dmap: set = set()
        stack: list = []
        for nat in ((False, True) if self.infinite else (False,)):
            for gi in range(len(self.groups)):
                stack.append((gi, 0, frozenset(), frozenset(), nat))
        while stack:
            gi, k, u1, u2, nat = stack.pop()
            key = (gi, k, u1, u2, nat)
            if key in seen_dmap:
                continue
            seen_dmap.add(key)
            src = ("dmap", core, mode, gi, k, u1, u2, nat)
            items = self.sorted_groups[gi]
            if k == len(items):
                assert (u1, u2) in self.pset, "pair escaped discovery"
                add(src, None, "inc", self.c_pair[(u1, u2)], drain(gi, nat))
                continue
            for (y, z, n2) in self.item_choices(letter, False, items[k], mode):
                nu1, nu2, nn = self.norm(u1 | y), self.norm(u2 | z), nat or n2
                noop(src, ("dmap", core, mode, gi, k + 1, nu1, nu2, nn))
                stack.append((gi, k + 1, nu1, nu2, nn))

        # choose the current-class and empty-row maps
        eq_items, emp_items = sorted(qeq), sorted(qemp)
        seen: set = set()
        stack = [("eq", 0, frozenset(), nat)
                 for nat in ((False, True) if self.infinite else (False,))]
        while stack:
            entry = stack.pop()
            if entry in seen:
                continue
            seen.add(entry)
            kind = entry[0]
            if kind == "eq":
                _, k, u2, nat = entry
                src = ("eqmap", core, mode, k, u2, nat)
                items = eq_items
                if k == len(items):
                    nxt = ("empmap", core, mode, 0, frozenset(), u2, nat)
                    noop(src, nxt)
                    stack.append(("emp", 0, frozenset(), u2, nat))
                    continue
                for (y, z, n2) in self.item_choices(letter, True, items[k], mode):
                    assert not y
                    nu2, nn = self.norm(u2 | z), nat or n2
                    noop(src, ("eqmap", core, mode, k + 1, nu2, nn))
                    stack.append(("eq", k + 1, nu2, nn))
            elif kind == "emp":
                _, k, u1, u2, nat = entry
                src = ("empmap", core, mode, k, u1, u2, nat)
                items = emp_items
                if k == len(items):
                    nxt = ("pair", core, mode, 0, u2, u1, nat)
                    noop(src, nxt)
                    stack.append(("pair", 0, u2, u1, nat))
                    continue
                for (y, z, n2) in self.item_choices(letter, False, items[k], mode):
                    nu1, nu2, nn = self.norm(u1 | y), self.norm(u2 | z), nat or n2
                    noop(src, ("empmap", core, mode, k + 1, nu1, nu2, nn))
                    stack.append(("emp", k + 1, nu1, nu2, nn))
            elif kind == "pair":
                _, pi, qddag, qemp1, nat = entry
                src = ("pair", core, mode, pi, qddag, qemp1, nat)
                if pi == len(self.pairs):
                    nxt = ("refill", core, mode, 0, qemp1, nat)
                    if qddag:
                        assert qddag in self.gset, "group escaped discovery"
                        add(src, None, "inc", self.c_group[qddag], nxt)
                    else:
                        noop(src, nxt)
                    stack.append(("refill", 0, qemp1, nat))
                    continue
                p = self.pairs[pi]
                add(src, None, "ifz", self.c_pair[p],
                    ("pair", core, mode, pi + 1, qddag, qemp1, nat))
                stack.append(("pair", pi + 1, qddag, qemp1, nat))
                mid = ("bump", core, mode, pi, qddag, qemp1, nat)
                add(src, None, "dec", self.c_pair[p], mid)
                qd2 = self.norm(qddag | p[1])
                add(mid, None, "inc", self.c_pair[p],
                    ("pair", core, mode, pi + 1, qd2, qemp1, nat))
                stack.append(("pair", pi + 1, qd2, qemp1, nat))
            elif kind == "refill":
                _, pi, qemp1, nat = entry
                src = ("refill", core, mode, pi, qemp1, nat)
                if pi == len(self.pairs):
                    if self.infinite and mode == "stay" and not nat:
                        continue  # an unmarked step must be declared fresh
                    flag = (mode == "fresh") if self.infinite else False
                    noop(src, ("ready", frozenset(), qemp1, flag))
                    for g in self.groups:
                        add(src, None, "dec", self.c_group[g],
                            ("ready", g, qemp1, flag))
                    continue
                p = self.pairs[pi]
                add(src, None, "ifz", self.c_pair[p],
                    ("refill", core, mode, pi + 1, qemp1, nat))
                stack.append(("refill", pi + 1, qemp1, nat))
                mid = ("refillmid", core, mode, pi, qemp1, nat)
                add(src, None, "dec", self.c_pair[p], mid)
                if p[0]:
                    add(mid, None, "inc", self.c_group[p[0]],
                        ("refill", core, mode, pi, qemp1, nat))
                else:
                    noop(mid, ("refill", core, mode, pi, qemp1, nat))


def build_ca_finite(a: RegisterAutomaton) -> CounterAutomaton:
    """An incrementing machine accepting exactly the letter projections of
    the finite data words the automaton accepts."""
    return _build(a, infinite=False)[0]


def build_ca_infinite(a: RegisterAutomaton) -> CounterAutomaton:
    """The infinitary variant, accepting by visiting marked locations
    infinitely often."""
    return _build(a, infinite=True)[0]


def build_ca_finite_with_stats(a: RegisterAutomaton):
    return _build(a, infinite=False)


def build_ca_infinite_with_stats(a: RegisterAutomaton):
    return _build(a, infinite=True)


def _build(a: RegisterAutomaton, infinite: bool):
    b = _Builder(a, infinite)
    b.discover()
    ca = b.emit()
    return ca, dict(b.stats)
