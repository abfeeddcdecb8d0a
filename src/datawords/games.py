"""Finite weak games: solving, strategy checking, signature assignments.

Ranks never increase along edges, so the game decomposes into rank strata.
Strata are solved from the lowest rank up: inside a stratum an infinite play
keeps that rank forever and is won by its parity, so a classic attractor
computation for the other player (towards dead ends it wins and exits it has
already won) settles every position.

Solving is two passes.  ``winners`` runs those attractors once and keeps
what they settle: each position's winner, the attractor round of every
position won against its stratum's parity, and the move by which the
opponent captured each such position it owns.  That is all acceptance asks
for.  The certificates are extracted from that result for the callers that
want them: ``solve`` adds the winner's positional strategy (the captures,
and the parity winner's moves into its own region), and ``signature``
reads player 1's signature assignment off the attractor rounds.
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
class Winners:
    """What the stratum attractors settle.  ``winner`` maps every position
    to the player who wins from it; ``level`` holds the attractor round of
    each position won against its stratum's parity, and ``capture`` the
    opponent's move at each of those positions that the opponent owns."""

    winner: dict
    level: dict
    capture: dict


def winners(g: WeakGame) -> Winners:
    """The winner of every position, by one attractor per rank stratum."""
    winner: dict = {}
    level: dict = {}
    capture: dict = {}
    owner, succ = g.owner, g.succ

    by_rank: dict[int, list] = {}
    for p in g.positions:
        by_rank.setdefault(g.rank[p], []).append(p)

    for r in sorted(by_rank):
        stratum = by_rank[r]
        parity_winner = 1 if r % 2 == 0 else 2
        opponent = 3 - parity_winner

        # attractor of the opponent towards immediately-lost spots.  Ranks
        # never increase along edges, so a successor is in the stratum
        # exactly when it has no winner yet.
        pending: dict = {}  # parity-winner-owned: successors not yet captured
        frontier = []
        preds: dict = {p: [] for p in stratum}
        for p in stratum:
            succs = succ.get(p, ())
            if owner[p] == parity_winner:
                free = 0
                for q in succs:
                    w = winner.get(q)
                    if w is None:
                        preds[q].append(p)
                        free += 1
                    elif w == parity_winner:
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
                    w = winner.get(q)
                    if w is None:
                        preds[q].append(p)
                    elif w == opponent and not captured:
                        captured = True
                        capture[p] = q
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
                    left = pending.get(p)
                    if left is None:  # the opponent's position
                        level[p] = round_no
                        capture[p] = q
                        nxt.append(p)
                    elif left == 1:
                        level[p] = round_no
                        nxt.append(p)
                    else:
                        pending[p] = left - 1
            frontier = nxt

        for p in stratum:
            winner[p] = opponent if p in level else parity_winner
    return Winners(winner, level, capture)


def _strategy(g: WeakGame, won: Winners, player: int) -> PositionalStrategy:
    """A positional strategy winning from every position the player wins:
    the capture where the player attracted the position, and at the
    player's own positions of its stratum's parity the first successor
    that the player also wins."""
    winner = won.winner
    choice: dict = {}
    for p, w in winner.items():
        if w != player:
            continue
        q = won.capture.get(p)
        if q is not None:
            choice[p] = q
        elif g.owner[p] == player:
            for q in g.succ.get(p, ()):
                if winner[q] == player:
                    choice[p] = q
                    break
    return PositionalStrategy(player, choice)


def _signature(won: Winners) -> dict:
    """Player 1's winning region, each position with its attractor round,
    or 0 where player 1 wins by an even stratum's parity."""
    level = won.level
    return {p: level.get(p, 0) for p, w in won.winner.items() if w == 1}


def solve(g: WeakGame, p) -> tuple[int, PositionalStrategy]:
    """Winner at p and a positional strategy winning from p for that player."""
    won = winners(g)
    w = won.winner[p]
    return w, _strategy(g, won, w)


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
    alpha = _signature(winners(g))
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
