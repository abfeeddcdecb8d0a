"""Nonemptiness for one-way nondeterministic register automata.

A configuration is abstracted to its letter, an at-the-end flag, the set of
registers holding the current class, the location, and the equality relation
among defined registers.  The abstract successor relation is finite, sound
and complete, so reachability of a winning abstract state decides finite
nonemptiness, and a lasso with an even-rank location (or a winning state not
at the end) decides the infinitary variant.  Abstract edges remember one
concrete class decision each, which makes witnesses constructive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ca import EMPTY, Verdict
from .errors import CertificateError, ClassMismatch
from .graph import cyclic, sccs
from .ra import (
    BBeg, BEnd, BLetter, BUp, RegisterAutomaton, TAnd, TBottom, TMove, TOr,
    TStore, TTest, TTop, accepts, classify_ra,
)
from .words import DataWord, format_data_word, make_data_word


@dataclass(frozen=True)
class AbstractState:
    letter: str
    at_end: bool
    current: frozenset  # registers holding the class of the current position
    location: object
    classes: frozenset  # equality classes over the defined registers

    def __post_init__(self):
        assert self.current == frozenset() or self.current in self.classes


def abstract(a: RegisterAutomaton, w: DataWord, state: tuple) -> AbstractState:
    """The abstraction of a concrete configuration (i, q, valuation)."""
    i, q, v = state
    groups: dict = {}
    for r, cls in enumerate(v, start=1):
        if cls is not None:
            groups.setdefault(cls, set()).add(r)
    current = frozenset(groups.get(w.class_of[i], frozenset()))
    classes = frozenset(frozenset(g) for g in groups.values())
    return AbstractState(w.letters[i], i + 1 == len(w), current, q, classes)


def initial_abstract_states(a: RegisterAutomaton) -> list[AbstractState]:
    out = []
    for letter in a.alphabet:
        for at_end in (False, True):
            out.append(AbstractState(letter, at_end, frozenset(), a.initial, frozenset()))
    return out


def is_winning(a: RegisterAutomaton, h: AbstractState) -> bool:
    """Abstract states whose concretizations are player-2 dead ends."""
    tf = a.delta[h.location]
    if isinstance(tf, TTop):
        return True
    return isinstance(tf, TMove) and tf.weak and h.at_end


def _guard_holds(guard, h: AbstractState) -> bool:
    t = type(guard)
    if t is BLetter:
        return h.letter == guard.letter
    if t is BEnd:
        return h.at_end
    if t is BBeg:
        raise ClassMismatch("beginning test in a supposedly one-way automaton")
    return guard.register in h.current


def abs_successors(a: RegisterAutomaton, h: AbstractState) -> list[tuple[AbstractState, object]]:
    """Successors with the class decision that realizes each edge.

    Decisions: None for in-place steps; for moves, ("fresh", letter, at_end)
    or ("reuse", representative register, letter, at_end) saying which class
    the next position joins.
    """
    tf = a.delta[h.location]
    t = type(tf)
    if t is TTest:
        target = tf.then if _guard_holds(tf.guard, h) else tf.other
        return [(AbstractState(h.letter, h.at_end, h.current, target, h.classes), None)]
    if t is TStore:
        r = tf.register
        stripped = []
        for g in h.classes:
            g2 = g - {r}
            if g2:
                stripped.append(frozenset(g2))
        current = frozenset(h.current - {r} | {r})
        classes = frozenset(g for g in stripped if g != h.current - {r}) | {current}
        return [(AbstractState(h.letter, h.at_end, current, tf.target, classes), None)]
    if t is TOr:
        return [
            (AbstractState(h.letter, h.at_end, h.current, tf.left, h.classes), None),
            (AbstractState(h.letter, h.at_end, h.current, tf.right, h.classes), None),
        ]
    if t in (TTop, TBottom):
        return []
    if t is TAnd:
        raise ClassMismatch("conjunctive branching in a supposedly nondeterministic automaton")
    # a move
    if not tf.forward:
        raise ClassMismatch("backward move in a supposedly one-way automaton")
    if h.at_end:
        return []
    out = []
    for letter in a.alphabet:
        for at_end in (False, True):
            out.append((
                AbstractState(letter, at_end, frozenset(), tf.target, h.classes),
                ("fresh", letter, at_end),
            ))
            for g in h.classes:
                out.append((
                    AbstractState(letter, at_end, g, tf.target, h.classes),
                    ("reuse", min(g), letter, at_end),
                ))
    return out


def _check_1nra(a: RegisterAutomaton) -> None:
    c = classify_ra(a)
    if not (c.one_way and c.nondeterministic):
        raise ClassMismatch("expected a one-way nondeterministic automaton")


def _explore(a: RegisterAutomaton):
    """The reachable abstract graph as two maps, each in discovery order:
    a state's successors with their decisions, and the edge it was
    discovered by (None at the initial states)."""
    parent: dict = dict.fromkeys(initial_abstract_states(a))
    queue = deque(parent)
    succs: dict = {}
    while queue:
        h = queue.popleft()
        out = succs[h] = abs_successors(a, h)
        for h2, dec in out:
            if h2 not in parent:
                parent[h2] = (h, dec)
                queue.append(h2)
    return succs, parent


def _witness_from(a: RegisterAutomaton, parent: dict, final: AbstractState) -> DataWord:
    """Replay the class decisions along the discovery path into a data word."""
    chain = []
    cur = final
    while parent[cur] is not None:
        cur, dec = parent[cur]
        chain.append((cur.location, dec))
    letters = [cur.letter]
    blocks: list[set[int]] = [{0}]
    block = 0  # the block of the current position
    # registers -> block index, mirroring the abstract run concretely
    reg_block: dict[int, int] = {}
    for location, dec in reversed(chain):
        if dec is None:
            tf = a.delta[location]
            if isinstance(tf, TStore):
                reg_block[tf.register] = block
            continue
        if dec[0] == "fresh":
            _kind, letter, _at_end = dec
            block = len(blocks)
            blocks.append(set())
        else:
            _kind, rep, letter, _at_end = dec
            block = reg_block[rep]
        letters.append(letter)
        blocks[block].add(len(letters) - 1)
    if not final.at_end:
        letters.append(a.alphabet.letters[0])
        blocks.append({len(letters) - 1})
    return make_data_word(letters, blocks)


def nonempty_finite(a: RegisterAutomaton) -> Verdict:
    """Finite-word nonemptiness, with a replayed witness when nonempty.

    Witnesses from all winning abstract states are canonicalized to the
    shortest (then lexicographically least) one, so the answer does not
    depend on exploration order; that one witness is replayed."""
    _check_1nra(a)
    _succs, parent = _explore(a)
    witnesses = [_witness_from(a, parent, h) for h in parent if is_winning(a, h)]
    if not witnesses:
        return EMPTY
    best = min(witnesses, key=lambda w: (len(w), w.letters, w.class_of))
    if not accepts(a, best):
        raise CertificateError(f"witness {format_data_word(best)} failed to replay")
    return Verdict("nonempty", witness=best)


def abstract_graph_to_dot(a: RegisterAutomaton, name: str = "abstract") -> str:
    """DOT export of the reachable abstract-state graph; winning states are
    doubly circled, initial ones marked with an arrowhead rank."""
    _check_1nra(a)
    succs, _parent = _explore(a)
    index = {h: k for k, h in enumerate(succs)}
    initial = set(initial_abstract_states(a))
    lines = [f"digraph {name} {{"]
    for h in succs:
        shape = "doublecircle" if is_winning(a, h) else "circle"
        reg = ",".join(str(r) for r in sorted(h.current)) or "-"
        label = f"{h.letter}{'$' if h.at_end else ''} {h.location} [{reg}]"
        style = ' style=bold' if h in initial else ""
        lines.append(f'  n{index[h]} [shape={shape}{style} label="{label}"];')
    for h, out in succs.items():
        for h2, _dec in out:
            lines.append(f"  n{index[h]} -> n{index[h2]};")
    lines.append("}")
    return "\n".join(lines)


def nonempty_infinite(a: RegisterAutomaton) -> Verdict:
    """Buchi nonemptiness: a winning abstract state strictly before the end,
    or a reachable cycle whose location rank is even.  Nonempty verdicts
    carry no certificate."""
    _check_1nra(a)
    succs, _parent = _explore(a)
    for h in succs:
        if is_winning(a, h) and not h.at_end:
            return Verdict("nonempty")
    # cycle detection on the abstract graph; ranks are constant on cycles
    edges = {h: tuple(h2 for h2, _ in out) for h, out in succs.items()}
    for scc in sccs(succs, edges):
        if cyclic(scc, edges) and a.rank[next(iter(scc)).location] % 2 == 0:
            return Verdict("nonempty")
    return EMPTY
