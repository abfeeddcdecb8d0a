"""Two-variable first-order logic over data words, and the translations
between its formulas and simple one-register temporal sentences.

Variables are integers (x0, x1, ...).  Position arithmetic atoms are
``x = y + k`` with k >= 0; k = 0 doubles as plain equality.  The
structural walkers go through ``ltl.fold``, so no depth of nesting costs them
recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

from . import ltl
from .errors import (
    NotSimpleFragment, NotTwoVariable, ParseError, UnboundVariable, UnknownAtom, WrongFreeVariable,
)
from .words import Alphabet, DataWord


class FoFormula:
    __slots__ = ()

    def __str__(self) -> str:
        return format_fo(self)

    @cached_property
    def free(self) -> frozenset[int]:
        """The free variables.  The fold that computes them stores them on
        every subformula on the way, and skips a subformula that has them,
        so each node computes them once (per node it would be quadratic in
        depth)."""
        def visit(f: FoFormula, _):
            if "free" in vars(f):
                return f.free, ()
            t = type(f)
            if t in _ATOM_VARS:
                return _store_free(f, _ATOM_VARS[t](f)), ()
            if t in _QUANTIFIERS:
                build, pairs = (lambda vs: vs - {f.var}), ((f.body, None),)
            elif t is FoNot:
                build, pairs = ltl.same, ((f.body, None),)
            elif t in _CONNECTIVES:
                build, pairs = frozenset.union, ((f.left, None), (f.right, None))
            else:
                raise TypeError(f)
            return (lambda *parts: _store_free(f, build(*parts))), pairs

        return ltl.fold(self, visit)


def _store_free(f: FoFormula, free: frozenset[int]) -> frozenset[int]:
    vars(f)["free"] = free  # what ``cached_property`` would store
    return free


@dataclass(frozen=True)
class FoTop(FoFormula):
    pass


@dataclass(frozen=True)
class FoBottom(FoFormula):
    pass


@dataclass(frozen=True)
class Pred(FoFormula):
    """P_a(x): the letter at position x is a."""

    letter: str
    var: int


@dataclass(frozen=True)
class Same(FoFormula):
    """x ~ y: the positions carry equal data."""

    left: int
    right: int


@dataclass(frozen=True)
class Less(FoFormula):
    left: int
    right: int


@dataclass(frozen=True)
class PlusEq(FoFormula):
    """left = right + offset (offset >= 0)."""

    left: int
    right: int
    offset: int


@dataclass(frozen=True)
class FoNot(FoFormula):
    body: FoFormula


@dataclass(frozen=True)
class FoAnd(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoOr(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoImplies(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Exists(FoFormula):
    var: int
    body: FoFormula


@dataclass(frozen=True)
class Forall(FoFormula):
    var: int
    body: FoFormula


FO_TOP = FoTop()
FO_BOT = FoBottom()


def fo_and(parts) -> FoFormula:
    """Right-nested conjunction; the empty conjunction is true."""
    parts = list(parts)
    if not parts:
        return FO_TOP
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = FoAnd(p, out)
    return out


_ATOM_VARS = {
    FoTop: lambda f: frozenset(), FoBottom: lambda f: frozenset(),
    Pred: lambda f: frozenset([f.var]),
    Same: lambda f: frozenset([f.left, f.right]),
    Less: lambda f: frozenset([f.left, f.right]),
    PlusEq: lambda f: frozenset([f.left, f.right]),
}
_CONNECTIVES = (FoAnd, FoOr, FoImplies)
_QUANTIFIERS = (Exists, Forall)


def free_vars(phi: FoFormula) -> frozenset[int]:
    return phi.free


def all_vars(phi: FoFormula) -> frozenset[int]:
    """The variables of the atoms and of the quantifiers above them: every
    quantifier has an atom below it."""
    def visit(f: FoFormula, quantified: frozenset[int]):
        t = type(f)
        if t in _ATOM_VARS:
            return _ATOM_VARS[t](f) | quantified, ()
        if t in _CONNECTIVES:
            return frozenset.union, ((f.left, quantified), (f.right, quantified))
        if t is FoNot:
            return ltl.same, ((f.body, quantified),)
        if t in _QUANTIFIERS:
            return ltl.same, ((f.body, quantified | {f.var}),)
        raise TypeError(f)

    return ltl.fold(phi, visit, frozenset())


def max_offset(phi: FoFormula) -> int:
    def visit(f: FoFormula, _):
        t = type(f)
        if t is FoNot or t in _QUANTIFIERS:
            return ltl.same, ((f.body, None),)
        if t in _CONNECTIVES:
            return max, ((f.left, None), (f.right, None))
        return (f.offset if t is PlusEq else 0), ()

    return ltl.fold(phi, visit)


def is_two_variable(phi: FoFormula) -> bool:
    return all_vars(phi) <= {0, 1}


def eval_fo(w: DataWord, asg: dict[int, int], phi: FoFormula) -> bool:
    """Tarskian satisfaction; assignments map variables to positions."""
    missing = free_vars(phi) - set(asg)
    if missing:
        raise UnboundVariable(f"unassigned variables {sorted(missing)}")
    for i in asg.values():
        w.check_position(i)
    return _ev(w, dict(asg), phi)


def _ev(w: DataWord, asg: dict[int, int], phi: FoFormula) -> bool:
    t = type(phi)
    if t is FoTop:
        return True
    if t is FoBottom:
        return False
    if t is Pred:
        return w.letters[asg[phi.var]] == phi.letter
    if t is Same:
        return w.class_of[asg[phi.left]] == w.class_of[asg[phi.right]]
    if t is Less:
        return asg[phi.left] < asg[phi.right]
    if t is PlusEq:
        return asg[phi.left] == asg[phi.right] + phi.offset
    if t is FoNot:
        return not _ev(w, asg, phi.body)
    if t is FoAnd:
        return _ev(w, asg, phi.left) and _ev(w, asg, phi.right)
    if t is FoOr:
        return _ev(w, asg, phi.left) or _ev(w, asg, phi.right)
    if t is FoImplies:
        return (not _ev(w, asg, phi.left)) or _ev(w, asg, phi.right)
    if t in (Exists, Forall):
        old = asg.get(phi.var)
        hits = []
        for p in range(len(w)):
            asg[phi.var] = p
            hits.append(_ev(w, asg, phi.body))
            if t is Exists and hits[-1]:
                break
            if t is Forall and not hits[-1]:
                break
        if old is None:
            asg.pop(phi.var, None)
        else:
            asg[phi.var] = old
        return any(hits) if t is Exists else all(hits)
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# The chi positional constraints


def chi(j: int, k: int, m: int) -> FoFormula:
    """Positional relation between x_j and x_{1-j} selected by k.

    |k| <= m pins the distance exactly; k = +-(m+1) says strictly beyond
    the +-m window.  Requires |k| <= m + 1.
    """
    if j not in (0, 1) or abs(k) > m + 1:
        raise ValueError(f"chi out of range: j={j}, k={k}, m={m}")
    other = 1 - j
    if k == 0:
        return PlusEq(other, j, 0)
    if 1 <= k <= m:
        return PlusEq(other, j, k)
    if -m <= k <= -1:
        return PlusEq(j, other, -k)
    if k == m + 1:
        return fo_and([Less(j, other)] +
                      [FoNot(PlusEq(other, j, kk)) for kk in range(1, m + 1)])
    return fo_and([Less(other, j)] +
                  [FoNot(PlusEq(j, other, kk)) for kk in range(1, m + 1)])


def _op_block(k: int, m: int, body: ltl.Formula) -> ltl.Formula:
    """The compound operator for jump k: freeze, k nexts, maybe eventually."""
    if k == 0:
        return ltl.Freeze(1, body)
    if 1 <= k <= m:
        for _ in range(k):
            body = ltl.Next(body)
        return ltl.Freeze(1, body)
    if -m <= k <= -1:
        for _ in range(-k):
            body = ltl.Prev(body)
        return ltl.Freeze(1, body)
    if k == m + 1:
        body = ltl.Future(body)
        for _ in range(m + 1):
            body = ltl.Next(body)
        return ltl.Freeze(1, body)
    if k == -(m + 1):
        body = ltl.Past(body)
        for _ in range(m + 1):
            body = ltl.Prev(body)
        return ltl.Freeze(1, body)
    raise ValueError(k)


# ---------------------------------------------------------------------------
# Simple temporal sentences -> two-variable formulas


def simple_ltl_to_fo2(phi: ltl.Formula, j: int, m: Optional[int] = None) -> FoFormula:
    """Translate a simple one-register sentence to a formula with at most
    x_j free, preserving satisfaction position for position."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    if m is None:
        m = ltl.least_simple_m(phi)
        if m is None:
            raise NotSimpleFragment(f"not simple for any m: {phi}")
    elif not ltl.is_simple_in(phi, m):
        raise NotSimpleFragment(f"not simple at m={m}: {phi}")
    return _t_fwd(phi, j, m)


_FWD_CONNECTIVES = {ltl.Not: FoNot, ltl.And: FoAnd, ltl.Or: FoOr, ltl.Implies: FoImplies}


def _t_fwd(phi: ltl.Formula, j: int, m: int) -> FoFormula:
    def visit(f: ltl.Formula, j: int):
        t = type(f)
        if t in _FWD_CONNECTIVES:
            return _FWD_CONNECTIVES[t], ltl.child_pairs(f, j)
        if t is ltl.Freeze:
            k, _eventually, body = ltl.freeze_block(f.body)
            return partial(_jump, 1 - j, chi(j, k, m)), ((body, 1 - j),)
        if t is ltl.Atom:
            return Pred(f.letter, j), ()
        if t is ltl.NAtom:
            return FoNot(Pred(f.letter, j)), ()
        if t is ltl.Top:
            return FO_TOP, ()
        if t is ltl.Bottom:
            return FO_BOT, ()
        if t is ltl.Reg:
            return Same(1 - j, j), ()
        if t is ltl.NReg:
            return FoNot(Same(1 - j, j)), ()
        raise NotSimpleFragment(f"unexpected node in simple formula: {f}")

    return ltl.fold(phi, visit, j)


def _jump(var: int, where: FoFormula, body: FoFormula) -> FoFormula:
    return Exists(var, FoAnd(where, body))


# ---------------------------------------------------------------------------
# Two-variable formulas -> simple temporal sentences


def fo2_to_simple_ltl(phi: FoFormula, j: int, m: Optional[int] = None) -> ltl.Formula:
    """Translate a two-variable formula with at most x_j free into an
    equivalent simple one-register sentence.

    The existential case sorts the matrix into two-variable atoms, subformulas
    of the current variable and subformulas of the other variable, evaluates
    the two-variable atoms under each jump hypothesis, and precomputes the
    current-variable parts outside the jump.  Output size is exponential in
    the worst case.
    """
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    if not is_two_variable(phi):
        raise NotTwoVariable(f"uses variables beyond x0/x1: {phi}")
    if not free_vars(phi) <= {j}:
        raise WrongFreeVariable(f"free variables {sorted(free_vars(phi))}, expected <= {{x{j}}}")
    if m is None:
        m = max_offset(phi)

    def visit(f: FoFormula, j: int):
        t = type(f)
        if t is FoNot:
            return _not2, ((f.body, j),)
        if t in _CONNECTIVES:
            return _BACK_CONNECTIVES[t], ((f.left, j), (f.right, j))
        if t is Forall:
            return _not2, ((Exists(f.var, FoNot(f.body)), j),)
        if t is Exists:
            if f.var == j:
                # rebinding the free variable: rename the quantifier by swapping
                return ltl.same, ((Exists(1 - j, _swap(f.body)), j),)
            return _t_exists(f.body, j, m)
        if t is FoTop:
            return ltl.TOP, ()
        if t is FoBottom:
            return ltl.BOT, ()
        if t is Pred:
            return ltl.Atom(f.letter), ()
        if t is Same:
            return ltl.TOP, ()  # both occurrences are x_j
        if t is Less:
            return ltl.BOT, ()
        if t is PlusEq:
            return (ltl.TOP if f.offset == 0 else ltl.BOT), ()
        raise TypeError(f)

    return ltl.fold(phi, visit, j)


def _swap(phi: FoFormula) -> FoFormula:
    """Exchange x0 and x1 everywhere (bound and free)."""
    def visit(f: FoFormula, _):
        t = type(f)
        if t is FoNot:
            return FoNot, ((f.body, None),)
        if t in _CONNECTIVES:
            return t, ((f.left, None), (f.right, None))
        if t in _QUANTIFIERS:
            return partial(t, 1 - f.var), ((f.body, None),)
        if t is Pred:
            return Pred(f.letter, 1 - f.var), ()
        if t in (Same, Less):
            return t(1 - f.left, 1 - f.right), ()
        if t is PlusEq:
            return PlusEq(1 - f.left, 1 - f.right, f.offset), ()
        if t in (FoTop, FoBottom):
            return f, ()
        raise TypeError(f)

    return ltl.fold(phi, visit)


def _not2(a: ltl.Formula) -> ltl.Formula:
    if isinstance(a, ltl.Top):
        return ltl.BOT
    if isinstance(a, ltl.Bottom):
        return ltl.TOP
    return ltl.Not(a)


_BACK_CONNECTIVES = {
    FoAnd: lambda a, b: ltl.big_and((a, b)),
    FoOr: lambda a, b: ltl.big_or((a, b)),
    FoImplies: lambda a, b: ltl.big_or((_not2(a), b)),
}


def _node(*parts) -> tuple:
    return parts


def _t_exists(body: FoFormula, j: int, m: int):
    """The fold step of ``exists x_{1-j} body``: the translations of the
    current-variable parts (under j) and of the other-variable parts (under
    1 - j) are its pairs, and its build joins one disjunct per jump."""
    leaves: tuple[list, list, list] = ([], [], [])  # alphas, xis, zetas

    def leaf(kind: int, f: FoFormula, _) -> tuple[int, int]:
        found = leaves[kind]
        if f not in found:
            found.append(f)
        return kind, found.index(f)

    def skeleton(f: FoFormula, _):
        # a leaf is numbered in its build, so in post-order from the left
        if f is None:
            return None, ()
        fv = f.free
        if type(f) in (Same, Less, PlusEq) and len(fv) == 2:
            return partial(leaf, 0, f), ((None, None),)
        if fv <= {j}:
            return partial(leaf, 1, f), ((None, None),)
        if fv <= {1 - j}:
            return partial(leaf, 2, f), ((None, None),)
        t = type(f)
        if t is FoNot:
            return partial(_node, _not2), ((f.body, None),)
        if t in _CONNECTIVES:
            return partial(_node, _BACK_CONNECTIVES[t]), ((f.left, None), (f.right, None))
        raise NotTwoVariable(f"cannot sort subformula {f}")

    beta = ltl.fold(body, skeleton)
    alphas, xis, zetas = leaves
    n_xi = len(xis)

    def build(*translated: ltl.Formula) -> ltl.Formula:
        xi_tr, zeta_tr = translated[:n_xi], translated[n_xi:]
        disjuncts: list[ltl.Formula] = []
        for k in range(-(m + 1), m + 2):
            for b in (True, False):
                alpha_vals = [_alpha_value(a, j, k, m, b) for a in alphas]
                for mask in range(1 << n_xi):
                    xi_vals = [ltl.TOP if mask >> i & 1 else ltl.BOT for i in range(n_xi)]
                    guard = ltl.big_and(
                        xi_tr[i] if mask >> i & 1 else _not2(xi_tr[i])
                        for i in range(n_xi)
                    )
                    if isinstance(guard, ltl.Bottom):
                        continue
                    reg = ltl.Reg(1) if b else ltl.NReg(1)
                    matrix = ltl.fold(beta, partial(_instantiate, (alpha_vals, xi_vals, zeta_tr)))
                    inner = ltl.big_and((reg, matrix))
                    if isinstance(inner, ltl.Bottom):
                        continue
                    disjuncts.append(ltl.big_and((guard, _op_block(k, m, inner))))
        return ltl.big_or(disjuncts)

    pairs = tuple((x, j) for x in xis) + tuple((z, 1 - j) for z in zetas)
    return (build, pairs) if pairs else (build(), ())


def _instantiate(values: tuple, node: tuple, _):
    """The fold step of a skeleton node: a leaf ``(kind, index)`` reads its
    value, and an inner node ``(build, child, ...)`` builds from its children."""
    if type(node[0]) is int:
        return values[node[0]][node[1]], ()
    return node[0], tuple((c, None) for c in node[1:])


def _alpha_value(atom: FoFormula, j: int, k: int, m: int, b: bool) -> ltl.Formula:
    """Truth value of a two-variable atom under the jump hypothesis.

    d is the position of x_{1-j} minus the position of x_j: exactly k when
    |k| <= m, and beyond the window otherwise.
    """
    if isinstance(atom, Same):
        return ltl.TOP if b else ltl.BOT
    exact = abs(k) <= m
    if isinstance(atom, Less):
        # atom: left < right
        want_d_positive = atom.right == 1 - j
        if exact:
            val = k > 0 if want_d_positive else k < 0
        else:
            val = (k > 0) == want_d_positive
        return ltl.TOP if val else ltl.BOT
    assert isinstance(atom, PlusEq)
    # atom: left = right + offset, i.e. d = offset or d = -offset
    target = atom.offset if atom.left == 1 - j else -atom.offset
    if exact:
        val = k == target
    else:
        val = False  # |d| > m >= |offset|
    return ltl.TOP if val else ltl.BOT


# ---------------------------------------------------------------------------
# Parsing and printing

_VAR = re.compile(r"x(\d+)")


class _FoParser(ltl.OperatorParser):
    """Infix precedence (low to high): ``->``, grouping to the right, then
    ``|`` and ``&``, grouping to the left.  The prefixes ``!``, ``exists
    xN`` and ``forall xN`` bind tighter than all of them."""

    TOKEN = re.compile(r"\s*(->|[()&|!~<]|=|\+|\d+|[A-Za-z_][A-Za-z0-9_.]*)")
    INFIX = {"->": (0, FoImplies), "|": (1, FoOr), "&": (2, FoAnd)}
    RIGHT = (0,)

    def __init__(self, text: str, sigma: Optional[Alphabet]):
        super().__init__(text)
        self.sigma = sigma

    def var(self) -> int:
        tok = self.take()
        m = _VAR.fullmatch(tok)
        if not m:
            raise ParseError(f"expected a variable, found {tok!r}", self.pos())
        return int(m.group(1))

    def prefix(self):
        tok = self.peek()
        if tok == "!":
            self.k += 1
            return FoNot
        if tok in ("exists", "forall"):
            self.k += 1
            return partial(Exists if tok == "exists" else Forall, self.var())
        return None

    def primary(self) -> FoFormula:
        tok = self.peek()
        if tok == "true":
            self.take()
            return FO_TOP
        if tok == "false":
            self.take()
            return FO_BOT
        if tok is not None and tok.startswith("P") and len(tok) > 1:
            pos = self.pos()
            letter = self.take()[1:]
            if self.sigma is not None and letter not in self.sigma:
                raise UnknownAtom(f"atom {letter!r} not in the alphabet", pos)
            self.expect("(")
            v = self.var()
            self.expect(")")
            return Pred(letter, v)
        if tok is not None and _VAR.fullmatch(tok):
            a = self.var()
            op = self.take()
            if op == "~":
                return Same(a, self.var())
            if op == "<":
                return Less(a, self.var())
            if op == "=":
                b = self.var()
                if self.peek() == "+":
                    self.take()
                    off = self.take()
                    if not off.isdigit():
                        raise ParseError(f"expected a number after '+', found {off!r}", self.pos())
                    return PlusEq(a, b, int(off))
                return PlusEq(a, b, 0)
            raise ParseError(f"unexpected operator {op!r}", self.pos())
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse_fo(text: str, sigma: Optional[Alphabet] = None) -> FoFormula:
    """Parse a formula; the letters of its predicates are checked against
    ``sigma`` when given."""
    return _FoParser(text, sigma).parse()


_FORMAT = {FoNot: "!({})".format, FoAnd: "({} & {})".format,
           FoOr: "({} | {})".format, FoImplies: "({} -> {})".format}


def format_fo(phi: FoFormula) -> str:
    def visit(f: FoFormula, _):
        t = type(f)
        if t is FoNot:
            return _FORMAT[t], ((f.body, None),)
        if t in _CONNECTIVES:
            return _FORMAT[t], ((f.left, None), (f.right, None))
        if t in _QUANTIFIERS:
            return f"{t.__name__.lower()} x{f.var} ({{}})".format, ((f.body, None),)
        if t is FoTop:
            return "true", ()
        if t is FoBottom:
            return "false", ()
        if t is Pred:
            return f"P{f.letter}(x{f.var})", ()
        if t is Same:
            return f"x{f.left} ~ x{f.right}", ()
        if t is Less:
            return f"x{f.left} < x{f.right}", ()
        if t is PlusEq:
            plus = f" + {f.offset}" if f.offset else ""
            return f"x{f.left} = x{f.right}{plus}", ()
        raise TypeError(f)

    return ltl.fold(phi, visit)
