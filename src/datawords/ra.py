"""Two-way alternating register automata over data words.

A transition formula rewrites one location into a small expression over
locations: a Boolean test, a store, a binary and/or, accept/reject, or a
move to an adjacent position.  Ranks never increase along transitions and
heights strictly decrease on the non-moving ones, so acceptance games are
weak and in-place progress terminates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    ClassMismatch, ParseError, StateSpaceBudgetExceeded, UnsupportedClassCombination,
)
from .games import PositionalStrategy, WeakGame, solve
from .words import Alphabet, DataWord, parse_alphabet, parse_header_count


# --- tests -----------------------------------------------------------------

@dataclass(frozen=True)
class BLetter:
    letter: str


@dataclass(frozen=True)
class BBeg:
    pass


@dataclass(frozen=True)
class BEnd:
    pass


@dataclass(frozen=True)
class BUp:
    register: int


# --- transition formulas ----------------------------------------------------

@dataclass(frozen=True)
class TTest:
    guard: object
    then: object
    other: object


@dataclass(frozen=True)
class TStore:
    register: int
    target: object


@dataclass(frozen=True)
class TAnd:
    left: object
    right: object


@dataclass(frozen=True)
class TOr:
    left: object
    right: object


@dataclass(frozen=True)
class TTop:
    pass


@dataclass(frozen=True)
class TBottom:
    pass


@dataclass(frozen=True)
class TMove:
    """X / weak X / backwards variants, by direction and weakness."""

    forward: bool
    weak: bool
    target: object


def tf_targets(tf) -> tuple:
    t = type(tf)
    if t is TTest:
        return (tf.then, tf.other)
    if t is TStore:
        return (tf.target,)
    if t in (TAnd, TOr):
        return (tf.left, tf.right)
    if t is TMove:
        return (tf.target,)
    return ()


def retarget(tf, f):
    """The transition formula with every target location q replaced by f(q)."""
    t = type(tf)
    if t is TTest:
        return TTest(tf.guard, f(tf.then), f(tf.other))
    if t is TStore:
        return TStore(tf.register, f(tf.target))
    if t in (TAnd, TOr):
        return t(f(tf.left), f(tf.right))
    if t is TMove:
        return TMove(tf.forward, tf.weak, f(tf.target))
    return tf


@dataclass(frozen=True)
class RaClass:
    one_way: bool
    nondeterministic: bool
    universal: bool

    @property
    def deterministic(self) -> bool:
        return self.nondeterministic and self.universal


@dataclass
class RegisterAutomaton:
    alphabet: Alphabet
    locations: tuple
    initial: object
    n_registers: int
    delta: dict
    rank: dict
    height: dict

    def __post_init__(self):
        self.locations = tuple(self.locations)


def relabel(a: RegisterAutomaton, f) -> RegisterAutomaton:
    """The same automaton with every location q renamed to f(q); f must be
    injective on the locations."""
    return RegisterAutomaton(
        a.alphabet, tuple(f(q) for q in a.locations), f(a.initial), a.n_registers,
        {f(q): retarget(tf, f) for q, tf in a.delta.items()},
        {f(q): r for q, r in a.rank.items()},
        {f(q): h for q, h in a.height.items()},
    )


def validate(a: RegisterAutomaton) -> list[str]:
    """All rank/height/structure violations; empty means well formed."""
    out = []
    locs = set(a.locations)
    if a.initial not in locs:
        out.append(f"initial location {a.initial!r} missing")
    for q in a.locations:
        tf = a.delta.get(q)
        if tf is None:
            out.append(f"no transition formula at {q!r}")
            continue
        if isinstance(tf, TTest):
            g = tf.guard
            if isinstance(g, BLetter) and g.letter not in a.alphabet:
                out.append(f"{q!r}: unknown letter {g.letter!r}")
            if isinstance(g, BUp) and not 1 <= g.register <= a.n_registers:
                out.append(f"{q!r}: register {g.register} out of range")
        if isinstance(tf, TStore) and not 1 <= tf.register <= a.n_registers:
            out.append(f"{q!r}: register {tf.register} out of range")
        for q2 in tf_targets(tf):
            if q2 not in locs:
                out.append(f"{q!r}: target {q2!r} missing")
                continue
            if a.rank[q2] > a.rank[q]:
                out.append(f"rank increases along {q!r} -> {q2!r}")
            if not isinstance(tf, TMove) and a.height[q2] >= a.height[q]:
                out.append(f"height fails to drop along {q!r} -> {q2!r}")
    return out


def classify_ra(a: RegisterAutomaton) -> RaClass:
    one_way = True
    nondet = True
    universal = True
    for q in a.locations:
        tf = a.delta[q]
        if isinstance(tf, TTest) and isinstance(tf.guard, BBeg):
            one_way = False
        if isinstance(tf, TMove) and not tf.forward:
            one_way = False
        if isinstance(tf, TAnd):
            nondet = False
        if isinstance(tf, TOr):
            universal = False
    return RaClass(one_way, nondet, universal)


def dual(a: RegisterAutomaton) -> RegisterAutomaton:
    """Swap and/or, accept/reject and move weakness; ranks shift by one."""
    def d(tf):
        t = type(tf)
        if t is TAnd:
            return TOr(tf.left, tf.right)
        if t is TOr:
            return TAnd(tf.left, tf.right)
        if t is TTop:
            return TBottom()
        if t is TBottom:
            return TTop()
        if t is TMove:
            return TMove(tf.forward, not tf.weak, tf.target)
        return tf  # tests and stores are self-dual

    return RegisterAutomaton(
        a.alphabet, a.locations, a.initial, a.n_registers,
        {q: d(tf) for q, tf in a.delta.items()},
        {q: r + 1 for q, r in a.rank.items()},
        dict(a.height),
    )


# --- acceptance games --------------------------------------------------------

def _test_holds(guard, w: DataWord, i: int, v: tuple) -> bool:
    t = type(guard)
    if t is BLetter:
        return w.letters[i] == guard.letter
    if t is BBeg:
        return i == 0
    if t is BEnd:
        return i + 1 == len(w)
    cls = v[guard.register - 1]
    return cls is not None and w.class_of[i] == cls


def acceptance_game(a: RegisterAutomaton, w: DataWord,
                    max_states: int = 200_000) -> tuple[WeakGame, tuple]:
    """The weak game whose player-1 wins are accepting runs.

    States are (position, location, valuation); only states reachable from
    the initial one are materialized.  States with a unique successor are
    given to player 1 (the owner there is irrelevant).
    """
    init = (0, a.initial, (None,) * a.n_registers)
    owner: dict = {}
    succ: dict = {}
    rank: dict = {}
    stack = [init]
    seen = {init}
    n = len(w)
    while stack:
        if len(seen) > max_states:
            raise StateSpaceBudgetExceeded(f"more than {max_states} game states")
        st = stack.pop()
        i, q, v = st
        tf = a.delta[q]
        rank[st] = a.rank[q]
        t = type(tf)
        if t is TTest:
            target = tf.then if _test_holds(tf.guard, w, i, v) else tf.other
            owner[st] = 1
            succ[st] = [(i, target, v)]
        elif t is TStore:
            v2 = list(v)
            v2[tf.register - 1] = w.class_of[i]
            owner[st] = 1
            succ[st] = [(i, tf.target, tuple(v2))]
        elif t is TAnd:
            owner[st] = 2
            succ[st] = [(i, tf.left, v), (i, tf.right, v)]
        elif t is TOr:
            owner[st] = 1
            succ[st] = [(i, tf.left, v), (i, tf.right, v)]
        elif t is TTop:
            owner[st] = 2
            succ[st] = []
        elif t is TBottom:
            owner[st] = 1
            succ[st] = []
        else:  # TMove
            j = i + 1 if tf.forward else i - 1
            if 0 <= j < n:
                owner[st] = 1
                succ[st] = [(j, tf.target, v)]
            else:
                # falling off the word: weak moves accept, strong ones reject
                owner[st] = 2 if tf.weak else 1
                succ[st] = []
        for nxt in succ[st]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    game = WeakGame(list(seen), owner, succ, rank)
    return game, init


def accepts(a: RegisterAutomaton, w: DataWord, max_states: int = 200_000) -> bool:
    game, init = acceptance_game(a, w, max_states)
    winner, _ = solve(game, init)
    return winner == 1


def accepting_strategy(a: RegisterAutomaton, w: DataWord,
                       max_states: int = 200_000) -> tuple[int, PositionalStrategy, set]:
    """Winner, their positional strategy, and the states its plays visit."""
    from .games import strategy_closure

    game, init = acceptance_game(a, w, max_states)
    winner, strat = solve(game, init)
    visited = strategy_closure(game, init, strat)
    return winner, strat, visited


# --- closure constructions ----------------------------------------------------

def _is_moving(tf) -> bool:
    return isinstance(tf, (TMove, TTop, TBottom))


def _pair_right(q1, tf, shift: int):
    """Pair q1 onto every location of a transition formula of the right
    factor, whose registers are shifted past the left factor's."""
    t = type(tf)
    if t is TTest and type(tf.guard) is BUp:
        tf = TTest(BUp(tf.guard.register + shift), tf.then, tf.other)
    elif t is TStore:
        tf = TStore(tf.register + shift, tf.target)
    return retarget(tf, lambda q2: (q1, q2))


def product_1nra(a1: RegisterAutomaton, a2: RegisterAutomaton) -> RegisterAutomaton:
    """Intersection of one-way nondeterministic automata by synchronous
    product; the second factor's registers are shifted past the first's.

    When the position moves, both factors must be ready (or already done).
    The non-moving factor acts first; with two accepted factors the product
    accepts, and a rejecting factor rejects everything.
    """
    for a in (a1, a2):
        c = classify_ra(a)
        if not (c.one_way and c.nondeterministic):
            raise ClassMismatch("product requires one-way nondeterministic inputs")
    if a1.alphabet != a2.alphabet:
        raise ClassMismatch("alphabets differ")
    shift = a1.n_registers

    def combined(q1, q2):
        t1, t2 = a1.delta[q1], a2.delta[q2]
        m1, m2 = _is_moving(t1), _is_moving(t2)
        if isinstance(t1, TBottom) or isinstance(t2, TBottom):
            return TBottom()
        if not m1:
            return retarget(t1, lambda p: (p, q2))
        if not m2:
            return _pair_right(q1, t2, shift)
        if isinstance(t1, TTop) and isinstance(t2, TTop):
            return TTop()
        if isinstance(t1, TTop):
            return _pair_right(q1, t2, shift)
        if isinstance(t2, TTop):
            return retarget(t1, lambda p: (p, q2))
        # both moves, necessarily forward
        return TMove(True, t1.weak and t2.weak, (t1.target, t2.target))

    locations = tuple((q1, q2) for q1 in a1.locations for q2 in a2.locations)
    delta = {}
    rank = {}
    height = {}
    for (q1, q2) in locations:
        delta[(q1, q2)] = combined(q1, q2)
        rank[(q1, q2)] = (a1.rank[q1] + 1) * (a2.rank[q2] + 1) + 1
        height[(q1, q2)] = a1.height[q1] + a2.height[q2]
    return RegisterAutomaton(
        a1.alphabet, locations, (a1.initial, a2.initial),
        a1.n_registers + a2.n_registers, delta, rank, height,
    )


def _root_combine(a1: RegisterAutomaton, a2: RegisterAutomaton, conj: bool) -> RegisterAutomaton:
    """A fresh root location branching to both initials; registers shared,
    so the maximum of the two counts suffices."""
    if a1.alphabet != a2.alphabet:
        raise ClassMismatch("alphabets differ")
    l = relabel(a1, lambda q: ("l", q))
    r = relabel(a2, lambda q: ("r", q))
    root = ("root",)
    ctor = TAnd if conj else TOr
    delta = {**l.delta, **r.delta, root: ctor(l.initial, r.initial)}
    rank = {**l.rank, **r.rank,
            root: max(l.rank[l.initial], r.rank[r.initial])}
    height = {**l.height, **r.height,
              root: max(l.height[l.initial], r.height[r.initial]) + 1}
    return RegisterAutomaton(
        a1.alphabet, (root,) + l.locations + r.locations, root,
        max(a1.n_registers, a2.n_registers), delta, rank, height,
    )


def complement(a: RegisterAutomaton) -> RegisterAutomaton:
    """Complement is the dual, for every class of register automata."""
    return dual(a)


def intersect(a1: RegisterAutomaton, a2: RegisterAutomaton) -> RegisterAutomaton:
    c1, c2 = classify_ra(a1), classify_ra(a2)
    if c1.nondeterministic and c2.nondeterministic:
        if c1.one_way and c2.one_way:
            return product_1nra(a1, a2)
        raise UnsupportedClassCombination(
            "two-way nondeterministic automata are not closed under intersection")
    return _root_combine(a1, a2, conj=True)


def union(a1: RegisterAutomaton, a2: RegisterAutomaton) -> RegisterAutomaton:
    c1, c2 = classify_ra(a1), classify_ra(a2)
    if c1.universal and c2.universal and not (c1.nondeterministic and c2.nondeterministic):
        if c1.one_way and c2.one_way:
            return dual(product_1nra(dual(a1), dual(a2)))
        raise UnsupportedClassCombination(
            "two-way universal automata are not closed under union")
    if c1.deterministic and c2.deterministic:
        if c1.one_way and c2.one_way:
            return dual(product_1nra(dual(a1), dual(a2)))
        raise UnsupportedClassCombination(
            "two-way deterministic automata are not closed under union")
    return _root_combine(a1, a2, conj=False)


# --- automatic rank/height assignment ----------------------------------------

def assign_annotations(locations: Iterable, delta: dict,
                       even_cycles: Iterable = ()) -> tuple[dict, dict]:
    """Ranks and heights satisfying the weakness constraints.

    Heights follow the longest non-moving chain (which must be acyclic).
    Each strongly connected component gets one rank, above its successors;
    components on a cycle get an odd rank unless listed in even_cycles,
    whose members get an even one.
    """
    locations = list(locations)
    even_cycles = set(even_cycles)

    height: dict = {}

    def h(q):
        if q in height:
            if height[q] is None:
                raise ValueError(f"non-moving cycle through {q!r}")
            return height[q]
        height[q] = None
        tf = delta[q]
        if isinstance(tf, TMove) or isinstance(tf, (TTop, TBottom)):
            height[q] = 0
        else:
            height[q] = 1 + max((h(t) for t in tf_targets(tf)), default=0)
        return height[q]

    for q in locations:
        h(q)

    edges = {q: tf_targets(delta[q]) for q in locations}
    from .games import _sccs
    comps = _sccs(set(locations), edges)
    comp_of = {}
    for k, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = k
    rank_of_comp: dict[int, int] = {}

    def crank(k):
        if k in rank_of_comp:
            return rank_of_comp[k]
        comp = comps[k]
        below = 0
        for q in comp:
            for t in edges[q]:
                if comp_of[t] != k:
                    below = max(below, crank(comp_of[t]))
        cyclic = len(comp) > 1 or any(q in edges[q] for q in comp)
        r = below
        if cyclic:
            want_even = any(q in even_cycles for q in comp)
            if want_even and r % 2 == 1:
                r += 1
            if not want_even and r % 2 == 0:
                r += 1
        rank_of_comp[k] = r
        return r

    rank = {q: crank(comp_of[q]) for q in locations}
    return rank, height


# --- text format ---------------------------------------------------------------

def parse_ra(text: str) -> RegisterAutomaton:
    """Parse the automaton text format (see format_ra)."""
    sigma: Optional[Alphabet] = None
    n_reg: Optional[int] = None
    initial = None
    delta: dict = {}
    rank: dict = {}
    height: dict = {}
    order: list = []

    def parse_tf(rest: str):
        toks = rest.split()
        if not toks:
            raise ParseError("missing transition formula")
        head = toks[0]
        if head == "if":
            if len(toks) != 6 or toks[2] != "then" or toks[4] != "else":
                raise ParseError(f"malformed test: {rest!r}")
            g = toks[1]
            if g == "beg":
                guard = BBeg()
            elif g == "end":
                guard = BEnd()
            elif re.fullmatch(r"up\d+", g):
                guard = BUp(int(g[2:]))
            else:
                guard = BLetter(g)
            return TTest(guard, toks[3], toks[5])
        if re.fullmatch(r"store\d+", head):
            if len(toks) != 2:
                raise ParseError(f"malformed store: {rest!r}")
            return TStore(int(head[5:]), toks[1])
        if head in ("and", "or"):
            if len(toks) != 3:
                raise ParseError(f"malformed {head}: {rest!r}")
            return (TAnd if head == "and" else TOr)(toks[1], toks[2])
        if head == "true":
            return TTop()
        if head == "false":
            return TBottom()
        if head in ("X", "wX", "Xp", "wXp"):
            if len(toks) != 2:
                raise ParseError(f"malformed move: {rest!r}")
            return TMove(head in ("X", "wX"), head.startswith("w"), toks[1])
        raise ParseError(f"unknown transition formula {rest!r}")

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            sigma = parse_alphabet(line.split(":", 1)[1].split())
        elif line.startswith("registers:"):
            n_reg = parse_header_count(line)
        elif line.startswith("init:"):
            initial = line.split(":", 1)[1].strip()
        else:
            m = re.match(r"(\S+)\s+rank=(\d+)\s+height=(\d+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(f"bad location line {line!r}")
            q, r, h, rest = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
            order.append(q)
            rank[q] = r
            height[q] = h
            delta[q] = parse_tf(rest)
    if sigma is None or n_reg is None or initial is None:
        raise ParseError("missing alphabet:, registers: or init: header")
    return RegisterAutomaton(sigma, tuple(order), initial, n_reg, delta, rank, height)


def format_ra(a: RegisterAutomaton) -> str:
    names = {q: q if isinstance(q, str) else f"q{k}" for k, q in enumerate(a.locations)}

    def fmt_tf(tf):
        t = type(tf)
        if t is TTest:
            g = tf.guard
            gs = {BBeg: "beg", BEnd: "end"}.get(type(g))
            if gs is None:
                gs = f"up{g.register}" if isinstance(g, BUp) else g.letter
            return f"if {gs} then {names[tf.then]} else {names[tf.other]}"
        if t is TStore:
            return f"store{tf.register} {names[tf.target]}"
        if t is TAnd:
            return f"and {names[tf.left]} {names[tf.right]}"
        if t is TOr:
            return f"or {names[tf.left]} {names[tf.right]}"
        if t is TTop:
            return "true"
        if t is TBottom:
            return "false"
        base = "X" if tf.forward else "Xp"
        return f"{'w' if tf.weak else ''}{base} {names[tf.target]}"

    lines = [f"alphabet: {' '.join(a.alphabet.letters)}",
             f"registers: {a.n_registers}",
             f"init: {names[a.initial]}"]
    for q in a.locations:
        lines.append(f"{names[q]} rank={a.rank[q]} height={a.height[q]} : {fmt_tf(a.delta[q])}")
    return "\n".join(lines) + "\n"


def ra_to_dot(a: RegisterAutomaton, name: str = "ra") -> str:
    names = {q: f"n{k}" for k, q in enumerate(a.locations)}
    label = {
        TTop: "T", TBottom: "F", TAnd: "&", TOr: "|",
    }
    lines = [f"digraph {name} {{"]
    for q in a.locations:
        tf = a.delta[q]
        t = type(tf)
        if t is TTest:
            g = tf.guard
            txt = {BBeg: "beg?", BEnd: "end?"}.get(type(g))
            if txt is None:
                txt = f"up{g.register}?" if isinstance(g, BUp) else f"{g.letter}?"
        elif t is TStore:
            txt = f"store{tf.register}"
        elif t is TMove:
            txt = ("w" if tf.weak else "") + ("X" if tf.forward else "Xp")
        else:
            txt = label[t]
        shape = "doublecircle" if q == a.initial else "circle"
        lines.append(f'  {names[q]} [shape={shape} label="{q}\\n{txt}"];')
    for q in a.locations:
        tf = a.delta[q]
        if isinstance(tf, TTest):
            lines.append(f'  {names[q]} -> {names[tf.then]} [label="y"];')
            lines.append(f'  {names[q]} -> {names[tf.other]} [label="n"];')
        else:
            for t in tf_targets(tf):
                lines.append(f"  {names[q]} -> {names[t]};")
    lines.append("}")
    return "\n".join(lines)
