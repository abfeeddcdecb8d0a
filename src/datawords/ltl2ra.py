"""Compiling sentences into alternating register automata.

Locations are the members of the closure of the normal-form sentence: its
subformulas plus accept/reject plus the one-step unfoldings of the until
operators.  Until loops carry odd ranks (looping forever fails them), their
duals even ones; unfolding locations inherit the rank of the until formula
they unfold, which keeps ranks monotone where a literal size-based
assignment would not be.
"""

from __future__ import annotations

from . import ltl
from .errors import NotASentence, PreconditionViolation
from .ra import (
    BLetter, BUp, RegisterAutomaton, TAnd, TBottom, TMove, TOr, TStore, TTest, TTop,
)
from .words import Alphabet


_UNTIL_TYPES = (ltl.Until, ltl.Since, ltl.DualUntil, ltl.DualSince)


def unfolding(u: ltl.Formula) -> tuple[ltl.Formula, ltl.Formula]:
    """The one-step unfolding of an until-type formula and its inner move."""
    if isinstance(u, ltl.Until):
        inner = ltl.Next(u)
        return ltl.And(u.left, inner), inner
    if isinstance(u, ltl.Since):
        inner = ltl.Prev(u)
        return ltl.And(u.left, inner), inner
    if isinstance(u, ltl.DualUntil):
        inner = ltl.WNext(u)
        return ltl.Or(u.left, inner), inner
    inner = ltl.WPrev(u)
    return ltl.Or(u.left, inner), inner


def closure(phi: ltl.Formula) -> list[ltl.Formula]:
    """Subformulas of phi plus top, bottom, and all until unfoldings, each
    once, in discovery order."""
    out = dict.fromkeys(ltl.subformulas(phi))
    out.update(dict.fromkeys((ltl.TOP, ltl.BOT)))
    for f in list(out):
        if isinstance(f, _UNTIL_TYPES):
            unf, _inner = unfolding(f)
            out.update(dict.fromkeys(ltl.subformulas(unf)))
    return list(out)


def ltl_to_ara(phi: ltl.Formula, sigma: Alphabet) -> RegisterAutomaton:
    """An automaton accepting exactly the data words satisfying the sentence.

    The input is desugared and normalized first; a future-only sentence
    yields a one-way automaton.
    """
    if not ltl.is_sentence(phi):
        raise NotASentence(f"free register tests in {phi}")
    psi = ltl.nnf(phi)
    cl = closure(psi)
    low = min((f.register for f in cl if type(f) is ltl.Freeze), default=1)
    if low < 1:  # a sentence tests only registers it stores: checking the stores suffices
        raise PreconditionViolation(f"register {low} out of range: registers count from 1")

    sizes = {f: ltl.size(f) for f in cl}

    def base_rank(f: ltl.Formula) -> int:
        r = 2 * sizes[f]
        if isinstance(f, (ltl.Until, ltl.Since)):
            r += 1
        return r

    rank = {f: base_rank(f) for f in cl}
    height = {f: 3 * sizes[f] for f in cl}
    height[ltl.TOP] = 0
    height[ltl.BOT] = 0
    for f in cl:
        if isinstance(f, _UNTIL_TYPES):
            unf, inner = unfolding(f)
            rank[unf] = rank[inner] = rank[f]
            height[f] = 3 * sizes[f] + 2
            height[unf] = 3 * sizes[f] + 1
            height[inner] = 0

    def delta_of(f: ltl.Formula):
        t = type(f)
        if t is ltl.Atom:
            return TTest(BLetter(f.letter), ltl.TOP, ltl.BOT)
        if t is ltl.NAtom:
            return TTest(BLetter(f.letter), ltl.BOT, ltl.TOP)
        if t is ltl.Top:
            return TTop()
        if t is ltl.Bottom:
            return TBottom()
        if t is ltl.Reg:
            return TTest(BUp(f.register), ltl.TOP, ltl.BOT)
        if t is ltl.NReg:
            return TTest(BUp(f.register), ltl.BOT, ltl.TOP)
        if t is ltl.And:
            return TAnd(f.left, f.right)
        if t is ltl.Or:
            return TOr(f.left, f.right)
        if t is ltl.Freeze:
            return TStore(f.register, f.body)
        if t is ltl.Next:
            return TMove(True, False, f.body)
        if t is ltl.WNext:
            return TMove(True, True, f.body)
        if t is ltl.Prev:
            return TMove(False, False, f.body)
        if t is ltl.WPrev:
            return TMove(False, True, f.body)
        if t is ltl.Until or t is ltl.Since:
            unf, _ = unfolding(f)
            return TOr(f.right, unf)
        if t is ltl.DualUntil or t is ltl.DualSince:
            unf, _ = unfolding(f)
            return TAnd(f.right, unf)
        raise AssertionError(f"unnormalized node {f!r}")

    delta = {f: delta_of(f) for f in cl}
    return RegisterAutomaton(
        sigma, tuple(sorted(cl, key=sizes.__getitem__)), psi,
        ltl.max_register(psi), delta, rank, height,
    )
