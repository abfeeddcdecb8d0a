"""Finite weak games: solving, strategy checking, signature assignments.

Ranks never increase along edges, so the game decomposes into rank strata.
Strata are solved from the lowest rank up: inside a stratum an infinite play
keeps that rank forever and is won by its parity, so a classic attractor
computation for the other player (towards dead ends it wins and exits it has
already won) settles every position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from .errors import CertificateError
from .graph import cyclic, sccs

Position = Hashable


@dataclass
class WeakGame:
    positions: list
    owner: dict
    succ: dict
    rank: dict

    def __post_init__(self):
        for p in self.positions:
            for q in self.succ.get(p, ()):
                if self.rank[q] > self.rank[p]:
                    raise ValueError(f"rank increases along {p!r} -> {q!r}")

    def successors(self, p) -> tuple:
        return tuple(self.succ.get(p, ()))


@dataclass(frozen=True)
class PositionalStrategy:
    player: int
    choice: dict

    def __post_init__(self):
        assert self.player in (1, 2)


@dataclass
class Solution:
    win1: set
    win2: set
    strat1: PositionalStrategy
    strat2: PositionalStrategy
    signature: dict


def _solve(g: WeakGame) -> Solution:
    solved: dict = {}
    choice1: dict = {}
    choice2: dict = {}
    alpha: dict = {}

    by_rank: dict[int, list] = {}
    for p in g.positions:
        by_rank.setdefault(g.rank[p], []).append(p)

    for r in sorted(by_rank):
        stratum = by_rank[r]
        in_stratum = set(stratum)
        parity_winner = 1 if r % 2 == 0 else 2
        opponent = 3 - parity_winner
        opp_choice = choice1 if opponent == 1 else choice2

        # attractor of the opponent towards immediately-lost spots
        level: dict = {}
        pending: dict = {}  # parity-winner-owned: successors not yet captured
        frontier = []
        preds: dict = {p: [] for p in stratum}
        for p in stratum:
            succs = g.successors(p)
            if g.owner[p] == parity_winner:
                free = 0
                for q in succs:
                    if q in in_stratum:
                        preds[q].append(p)
                        free += 1
                    elif solved[q] == parity_winner:
                        free += 1
                if free == 0:
                    # dead end, or all exits lead to the opponent's region
                    level[p] = 0
                    frontier.append(p)
                else:
                    pending[p] = free
            else:
                captured = False
                for q in succs:
                    if q in in_stratum:
                        preds[q].append(p)
                    elif solved[q] == opponent and not captured:
                        captured = True
                        opp_choice[p] = q
                if captured:
                    level[p] = 0
                    frontier.append(p)

        round_no = 0
        while frontier:
            round_no += 1
            nxt = []
            for q in frontier:
                for p in preds[q]:
                    if p in level:
                        continue
                    if g.owner[p] == opponent:
                        level[p] = round_no
                        opp_choice[p] = q
                        nxt.append(p)
                    else:
                        pending[p] -= 1
                        if pending[p] == 0:
                            level[p] = round_no
                            nxt.append(p)
            frontier = nxt

        pw_choice = choice1 if parity_winner == 1 else choice2
        for p in stratum:
            if p in level:
                solved[p] = opponent
                if opponent == 1:
                    alpha[p] = level[p]
            else:
                solved[p] = parity_winner
                if parity_winner == 1:
                    alpha[p] = 0
                if g.owner[p] == parity_winner:
                    for q in g.successors(p):
                        if (q in in_stratum and q not in level) or \
                           (q not in in_stratum and solved[q] == parity_winner):
                            pw_choice[p] = q
                            break

    win1 = {p for p, w in solved.items() if w == 1}
    win2 = {p for p, w in solved.items() if w == 2}
    return Solution(win1, win2,
                    PositionalStrategy(1, {p: q for p, q in choice1.items() if p in win1}),
                    PositionalStrategy(2, {p: q for p, q in choice2.items() if p in win2}),
                    {p: a for p, a in alpha.items() if p in win1})


def solve(g: WeakGame, p) -> tuple[int, PositionalStrategy]:
    """Winner at p and a positional strategy winning from p for that player."""
    sol = _solve(g)
    if p in sol.win1:
        return 1, sol.strat1
    return 2, sol.strat2


def strategy_closure(g: WeakGame, p, s: PositionalStrategy) -> Optional[set]:
    """Positions reachable when s's owner follows s and the other player
    plays arbitrarily; None if s is undefined somewhere it must choose."""
    seen = set()
    stack = [p]
    while stack:
        q = stack.pop()
        if q in seen:
            continue
        seen.add(q)
        succs = g.successors(q)
        if not succs:
            continue
        if g.owner[q] == s.player:
            nxt = s.choice.get(q)
            if nxt is None or nxt not in succs:
                return None
            stack.append(nxt)
        else:
            stack.extend(succs)
    return seen


def check_strategy(g: WeakGame, p, s: PositionalStrategy) -> bool:
    """Whether every complete play following s from p is winning for s.player.

    Rank monotonicity makes every cycle rank-constant, so infinite plays are
    exactly the cycles of the restricted graph and their verdict is the
    parity of the cycle's rank.
    """
    reach = strategy_closure(g, p, s)
    if reach is None:
        return False
    want_parity = 0 if s.player == 1 else 1
    for q in reach:
        if not g.successors(q) and g.owner[q] == s.player:
            return False  # play ends on a position of s.player: s loses
    # restricted edges within the closure
    edges = {}
    for q in reach:
        succs = g.successors(q)
        if not succs:
            edges[q] = ()
        elif g.owner[q] == s.player:
            edges[q] = (s.choice[q],)
        else:
            edges[q] = tuple(x for x in succs if x in reach)
    for scc in sccs(reach, edges):
        if cyclic(scc, edges) and g.rank[next(iter(scc))] % 2 != want_parity:
            return False
    return True


def signature(g: WeakGame) -> dict:
    """A consistent signature assignment defined exactly on player 1's
    winning region; CertificateError if it fails check_signature."""
    sol = _solve(g)
    alpha = sol.signature
    ok, why = check_signature(g, alpha)
    if not ok:
        raise CertificateError(why)
    return alpha


def check_signature(g: WeakGame, alpha: dict) -> tuple[bool, str]:
    """Verify the two consistency conditions, ranks paired lexicographically
    with signature values."""
    dom = set(alpha)
    for p in dom:
        key = (g.rank[p], alpha[p])
        succs = g.successors(p)
        if g.owner[p] == 1:
            good = False
            for q in succs:
                if q in dom:
                    qk = (g.rank[q], alpha[q])
                    if qk < key or (qk == key and g.rank[p] % 2 == 0):
                        good = True
                        break
            if not good:
                return False, f"no consistent successor at {p!r}"
        else:
            for q in succs:
                if q not in dom:
                    return False, f"successor {q!r} of {p!r} escapes the domain"
                qk = (g.rank[q], alpha[q])
                if not (qk < key or (qk == key and g.rank[p] % 2 == 0)):
                    return False, f"signature increases along {p!r} -> {q!r}"
    return True, ""


def game_to_dot(g: WeakGame, name: str = "weakgame") -> str:
    """DOT export; player-1 positions are boxes, player-2 positions ovals."""
    lines = [f"digraph {name} {{"]
    ids = {p: f"n{k}" for k, p in enumerate(g.positions)}
    for p in g.positions:
        shape = "box" if g.owner[p] == 1 else "ellipse"
        label = str(p).replace('"', "'")
        lines.append(f'  {ids[p]} [shape={shape} label="{label}\\nrank {g.rank[p]}"];')
    for p in g.positions:
        for q in g.successors(p):
            lines.append(f"  {ids[p]} -> {ids[q]};")
    lines.append("}")
    return "\n".join(lines)
