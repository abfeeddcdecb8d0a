"""Linear temporal logic with the freeze quantifier, over data words.

The AST keeps surface sugar (F, G, their past versions, implication) so that
fragment classification sees what the user wrote; ``desugar`` eliminates it
before the automaton translation.  Dual operators (weak next, dual until,
negated atoms/registers) exist so negation normal form stays inside the AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional

from .errors import ForeignValuation, ParseError, UnknownAtom
from .words import Alphabet, DataWord, enumerate_data_words


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return format_ltl(self)


@dataclass(frozen=True)
class Atom(Formula):
    letter: str


@dataclass(frozen=True)
class NAtom(Formula):
    """Dual of an atom: true iff the current letter differs."""

    letter: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    body: Formula


@dataclass(frozen=True)
class WNext(Formula):
    """Weak next: true at the last position."""

    body: Formula


@dataclass(frozen=True)
class Prev(Formula):
    body: Formula


@dataclass(frozen=True)
class WPrev(Formula):
    body: Formula


@dataclass(frozen=True)
class Future(Formula):
    body: Formula


@dataclass(frozen=True)
class Past(Formula):
    body: Formula


@dataclass(frozen=True)
class Always(Formula):
    body: Formula


@dataclass(frozen=True)
class PastAlways(Formula):
    body: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class DualUntil(Formula):
    """Dual of until: right holds at every position not strictly preceded
    by a position (>= i) where left held."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Since(Formula):
    """Past until (U^-1)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class DualSince(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Freeze(Formula):
    register: int
    body: Formula


@dataclass(frozen=True)
class Reg(Formula):
    register: int


@dataclass(frozen=True)
class NReg(Formula):
    """Dual of a register test."""

    register: int


TOP = Top()
BOT = Bottom()

_CHILD_FIELDS = {
    Not: ("body",), Next: ("body",), WNext: ("body",), Prev: ("body",),
    WPrev: ("body",), Future: ("body",), Past: ("body",), Always: ("body",),
    PastAlways: ("body",), Freeze: ("body",),
    And: ("left", "right"), Or: ("left", "right"), Implies: ("left", "right"),
    Until: ("left", "right"), DualUntil: ("left", "right"),
    Since: ("left", "right"), DualSince: ("left", "right"),
}


def children(phi: Formula) -> tuple[Formula, ...]:
    fields = _CHILD_FIELDS.get(type(phi), ())
    return tuple(getattr(phi, f) for f in fields)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformulas, each once, parents before children."""
    seen = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        yield f
        stack.extend(children(f))


def size(phi: Formula) -> int:
    """Node count of the formula tree (shared subtrees counted repeatedly)."""
    n = 0
    stack = [phi]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def atoms(phi: Formula) -> frozenset[str]:
    out = set()
    for f in subformulas(phi):
        if isinstance(f, (Atom, NAtom)):
            out.add(f.letter)
    return frozenset(out)


def free_registers(phi: Formula) -> frozenset[int]:
    def rec(f: Formula, bound: frozenset[int]) -> frozenset[int]:
        if isinstance(f, (Reg, NReg)):
            return frozenset() if f.register in bound else frozenset([f.register])
        if isinstance(f, Freeze):
            return rec(f.body, bound | {f.register})
        out: frozenset[int] = frozenset()
        for c in children(f):
            out |= rec(c, bound)
        return out

    return rec(phi, frozenset())


def max_register(phi: Formula) -> int:
    regs = [f.register for f in subformulas(phi) if isinstance(f, (Freeze, Reg, NReg))]
    return max(regs, default=0)


def is_sentence(phi: Formula) -> bool:
    return not free_registers(phi)


# ---------------------------------------------------------------------------
# Semantics


def eval_ltl(w: DataWord, i: int, v: dict[int, int], phi: Formula) -> bool:
    """The satisfaction relation sigma, i |=_v phi.

    ``v`` maps register indices to class indices of ``w``.  An undefined
    register makes a register test false.  This direct interpreter is the
    ground truth every translation is tested against.
    """
    w.check_position(i)
    for cls in v.values():
        if not 0 <= cls < w.num_classes():
            raise ForeignValuation(f"class {cls} is not a class of the word")
    return _ev(w, i, v, phi)


def _ev(w: DataWord, i: int, v: dict[int, int], phi: Formula) -> bool:
    n = len(w)
    t = type(phi)
    if t is Atom:
        return w.letters[i] == phi.letter
    if t is NAtom:
        return w.letters[i] != phi.letter
    if t is Top:
        return True
    if t is Bottom:
        return False
    if t is Not:
        return not _ev(w, i, v, phi.body)
    if t is And:
        return _ev(w, i, v, phi.left) and _ev(w, i, v, phi.right)
    if t is Or:
        return _ev(w, i, v, phi.left) or _ev(w, i, v, phi.right)
    if t is Implies:
        return (not _ev(w, i, v, phi.left)) or _ev(w, i, v, phi.right)
    if t is Next:
        return i + 1 < n and _ev(w, i + 1, v, phi.body)
    if t is WNext:
        return i + 1 >= n or _ev(w, i + 1, v, phi.body)
    if t is Prev:
        return i - 1 >= 0 and _ev(w, i - 1, v, phi.body)
    if t is WPrev:
        return i - 1 < 0 or _ev(w, i - 1, v, phi.body)
    if t is Future:
        return any(_ev(w, j, v, phi.body) for j in range(i, n))
    if t is Past:
        return any(_ev(w, j, v, phi.body) for j in range(i, -1, -1))
    if t is Always:
        return all(_ev(w, j, v, phi.body) for j in range(i, n))
    if t is PastAlways:
        return all(_ev(w, j, v, phi.body) for j in range(i, -1, -1))
    if t is Until:
        for j in range(i, n):
            if _ev(w, j, v, phi.right):
                return True
            if not _ev(w, j, v, phi.left):
                return False
        return False
    if t is DualUntil:
        for j in range(i, n):
            if not _ev(w, j, v, phi.right):
                return False
            if _ev(w, j, v, phi.left):
                return True
        return True
    if t is Since:
        for j in range(i, -1, -1):
            if _ev(w, j, v, phi.right):
                return True
            if not _ev(w, j, v, phi.left):
                return False
        return False
    if t is DualSince:
        for j in range(i, -1, -1):
            if not _ev(w, j, v, phi.right):
                return False
            if _ev(w, j, v, phi.left):
                return True
        return True
    if t is Freeze:
        v2 = dict(v)
        v2[phi.register] = w.class_of[i]
        return _ev(w, i, v2, phi.body)
    if t is Reg:
        cls = v.get(phi.register)
        return cls is not None and w.class_of[i] == cls
    if t is NReg:
        cls = v.get(phi.register)
        return cls is None or w.class_of[i] != cls
    raise TypeError(f"unknown formula node {phi!r}")


# ---------------------------------------------------------------------------
# Normal forms


def desugar(phi: Formula) -> Formula:
    """Eliminate F, G, their past versions and implication.

    F phi becomes true U phi; G phi becomes the negation of F of the
    negation, and similarly for the past.  Duals are left untouched.
    """
    t = type(phi)
    if t is Future:
        return Until(TOP, desugar(phi.body))
    if t is Past:
        return Since(TOP, desugar(phi.body))
    if t is Always:
        return Not(Until(TOP, Not(desugar(phi.body))))
    if t is PastAlways:
        return Not(Since(TOP, Not(desugar(phi.body))))
    if t is Implies:
        return Or(Not(desugar(phi.left)), desugar(phi.right))
    fields = _CHILD_FIELDS.get(t)
    if not fields:
        return phi
    new = tuple(desugar(getattr(phi, f)) for f in fields)
    if new == children(phi):
        return phi
    if len(fields) == 1:
        return t(new[0]) if t is not Freeze else Freeze(phi.register, new[0])
    return t(*new)


def nnf(phi: Formula) -> Formula:
    """Negation normal form: negations pushed down to dual literals."""
    return _nnf(desugar(phi), False)


def _nnf(phi: Formula, neg: bool) -> Formula:
    t = type(phi)
    if t is Not:
        return _nnf(phi.body, not neg)
    if t is Atom:
        return NAtom(phi.letter) if neg else phi
    if t is NAtom:
        return Atom(phi.letter) if neg else phi
    if t is Top:
        return BOT if neg else TOP
    if t is Bottom:
        return TOP if neg else BOT
    if t is Reg:
        return NReg(phi.register) if neg else phi
    if t is NReg:
        return Reg(phi.register) if neg else phi
    if t is And:
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return Or(l, r) if neg else And(l, r)
    if t is Or:
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return And(l, r) if neg else Or(l, r)
    if t is Next:
        return (WNext if neg else Next)(_nnf(phi.body, neg))
    if t is WNext:
        return (Next if neg else WNext)(_nnf(phi.body, neg))
    if t is Prev:
        return (WPrev if neg else Prev)(_nnf(phi.body, neg))
    if t is WPrev:
        return (Prev if neg else WPrev)(_nnf(phi.body, neg))
    if t is Until:
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return DualUntil(l, r) if neg else Until(l, r)
    if t is DualUntil:
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return Until(l, r) if neg else DualUntil(l, r)
    if t is Since:
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return DualSince(l, r) if neg else Since(l, r)
    if t is DualSince:
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return Since(l, r) if neg else DualSince(l, r)
    if t is Freeze:
        return Freeze(phi.register, _nnf(phi.body, neg))
    raise TypeError(f"cannot normalize {phi!r}; desugar first")


# ---------------------------------------------------------------------------
# Fragment classification

_SURFACE_OPS = {
    Next: "X", WNext: "wX", Prev: "Xp", WPrev: "wXp",
    Future: "F", Past: "Fp", Always: "G", PastAlways: "Gp",
    Until: "U", DualUntil: "wU", Since: "Up", DualSince: "wUp",
}


@dataclass(frozen=True)
class FragmentInfo:
    operators: frozenset[str]
    max_register: int
    is_sentence: bool
    is_simple_Om: Optional[int]


def classify(phi: Formula) -> FragmentInfo:
    """Syntactic fragment data, computed on the surface AST.

    ``is_simple_Om`` is the least m such that phi is a simple formula of the
    one-register fragment with the depth-m operator family, if any.  The
    family is read so that the plain-next block of depth k requires m >= k
    and the next^k-then-eventually block requires m = k - 1 exactly; at
    m = 0 the family therefore contains no plain next (the eventually blocks
    are its only members), which is the degenerate reading of its definition.
    """
    ops = frozenset(_SURFACE_OPS[type(f)] for f in subformulas(phi)
                    if type(f) in _SURFACE_OPS)
    info = _simple_scan(phi)
    least = None
    if info is not None:
        pure, fdepths = info
        if len(fdepths) > 1:
            least = None
        elif len(fdepths) == 1:
            (fd,) = fdepths
            m = fd - 1
            least = m if m >= max(pure, default=0) else None
        else:
            least = max(pure, default=0)
    return FragmentInfo(ops, max_register(phi), is_sentence(phi), least)


def is_simple_in(phi: Formula, m: int) -> bool:
    """Whether phi is simple in the one-register fragment at depth m."""
    info = _simple_scan(phi)
    if info is None:
        return False
    pure, fdepths = info
    return all(k <= m for k in pure) and all(k == m + 1 for k in fdepths)


def _simple_scan(phi: Formula) -> Optional[tuple[set[int], set[int]]]:
    """Collect operator-block depths of a simple formula.

    Returns (pure next depths, next-then-eventually depths), or None when the
    formula is not simple for any m:  a temporal operator not heading a
    freeze block, a register other than 1, or an until makes it unsuitable.
    """
    pure: set[int] = set()
    fdepths: set[int] = set()

    def block(f: Formula) -> Optional[Formula]:
        # f is the body of a freeze on register 1: strip X^k [F] / Xp^k [Fp]
        k = 0
        fwd = None
        while True:
            if isinstance(f, Next) and fwd in (None, True):
                fwd, k, f = True, k + 1, f.body
            elif isinstance(f, Prev) and fwd in (None, False):
                fwd, k, f = False, k + 1, f.body
            else:
                break
        if isinstance(f, Future) and fwd in (None, True):
            fdepths.add(k)
            return f.body
        if isinstance(f, Past) and fwd in (None, False):
            fdepths.add(k)
            return f.body
        if k > 0:
            pure.add(k)
        return f

    def rec(f: Formula) -> bool:
        t = type(f)
        if t in (Atom, NAtom, Top, Bottom):
            return True
        if t in (Reg, NReg):
            return f.register == 1
        if t is Not:
            return rec(f.body)
        if t in (And, Or, Implies):
            return rec(f.left) and rec(f.right)
        if t is Freeze:
            if f.register != 1:
                return False
            rest = block(f.body)
            return rest is not None and rec(rest)
        # bare temporal operator (incl. any until/dual) -> not simple
        return False

    return (pure, fdepths) if rec(phi) else None


# ---------------------------------------------------------------------------
# Bounded satisfiability (brute force oracle)


def sat_bounded(phi: Formula, sigma: Alphabet, max_len: int) -> Optional[DataWord]:
    """First enumerated data word satisfying the sentence, if any."""
    for w in enumerate_data_words(sigma, max_len):
        if eval_ltl(w, 0, {}, phi):
            return w
    return None


# ---------------------------------------------------------------------------
# Parsing and printing

_TOKEN = re.compile(r"\s*(->|[()&|!]|[A-Za-z_][A-Za-z0-9_.]*)")

_KEYWORDS = {"X", "Xp", "F", "Fp", "G", "Gp", "U", "Up", "true", "false"}
_STORE = re.compile(r"store\d+")
_UP = re.compile(r"up\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


_PREFIX = {"!": Not, "X": Next, "Xp": Prev, "F": Future, "Fp": Past,
           "G": Always, "Gp": PastAlways}


# infix operators by token: (binding level, constructor); -> binds loosest
_INFIX = {"->": (0, Implies), "|": (1, Or), "&": (2, And), "U": (3, Until),
          "Up": (3, Since)}
_RIGHT = (0, 3)  # the levels that group to the right: ->, U and Up


class _LtlParser:
    """Operator precedence over explicit stacks, so neither a long chain of
    operators nor deep parentheses costs recursion depth.

    Infix precedence (low to high): ``->``, ``|``, ``&``, ``U``/``Up``;
    ``->``, ``U`` and ``Up`` group to the right, ``|`` and ``&`` to the
    left.  The prefix operators (!, X, Xp, F, Fp, G, Gp, store<r>) form a
    single tier binding tighter than the infix ones, so ``X a U b`` is
    ``(X a) U b`` and ``store1 X p`` is ``store1 (X p)``.
    """

    def __init__(self, tokens: list[tuple[str, int]], sigma: Optional[Alphabet]):
        self.tokens = tokens
        self.k = 0
        self.sigma = sigma

    def peek(self) -> Optional[str]:
        return self.tokens[self.k][0] if self.k < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.k][1] if self.k < len(self.tokens) else -1

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.k += 1
        return tok

    def parse(self) -> Formula:
        # per open parenthesis, the (prefixes, operands, operators) around it
        groups: list = []
        prefixes, operands, ops = self.prefixes(), [], []
        while True:
            if self.peek() == "(":
                self.k += 1
                groups.append((prefixes, operands, ops))
                prefixes, operands, ops = self.prefixes(), [], []
                continue
            f = self.primary()
            while True:  # f is an operand, but for its prefixes
                for op in reversed(prefixes):
                    f = op(f)
                operands.append(f)
                tok = self.peek()
                if tok in _INFIX:
                    break
                _reduce(operands, ops, -1)
                f = operands.pop()
                if not groups:
                    if tok is not None:
                        raise ParseError(f"trailing input {tok!r}", self.pos())
                    return f
                if tok != ")":
                    raise ParseError(f"expected ')', found {tok!r}", self.pos())
                self.k += 1
                prefixes, operands, ops = groups.pop()
            self.k += 1
            level, op = _INFIX[tok]
            _reduce(operands, ops, level)
            ops.append((level, op))
            prefixes = self.prefixes()

    def prefixes(self) -> list:
        """The chain of prefix operators before an operand, outermost first."""
        chain = []
        while True:
            tok = self.peek()
            if tok in _PREFIX:
                chain.append(_PREFIX[tok])
            elif tok is not None and _STORE.fullmatch(tok):
                chain.append(partial(Freeze, int(tok[5:])))
            else:
                return chain
            self.take()

    def primary(self) -> Formula:
        """An atom, a register test or a constant."""
        tok = self.peek()
        if tok == "true":
            self.take()
            return TOP
        if tok == "false":
            self.take()
            return BOT
        if tok is not None and _UP.fullmatch(tok):
            self.take()
            return Reg(int(tok[2:]))
        if tok is not None and tok not in _KEYWORDS and _NAME.fullmatch(tok):
            pos = self.pos()
            self.take()
            if self.sigma is not None and tok not in self.sigma:
                raise UnknownAtom(f"atom {tok!r} not in the alphabet", pos)
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def _reduce(operands: list, ops: list, level: int) -> None:
    """Apply the stacked operators that take their right operand before an
    operator at ``level`` comes: those binding tighter, and those of its
    level when it groups to the left.  ``level=-1`` applies them all."""
    while ops and (ops[-1][0] > level or ops[-1][0] == level and level not in _RIGHT):
        _, op = ops.pop()
        right = operands.pop()
        operands.append(op(operands.pop(), right))


def parse_ltl(text: str, sigma: Optional[Alphabet] = None) -> Formula:
    """Parse a formula; atoms are checked against ``sigma`` when given."""
    return _LtlParser(_tokenize(text), sigma).parse()


def _fmt(phi: Formula, prec: int) -> str:
    # precedence levels: 0 implies, 1 or, 2 and, 3 until, 4 unary, 5 atom
    t = type(phi)
    if t is Atom:
        return phi.letter
    if t is NAtom:
        return f"!{phi.letter}"
    if t is Top:
        return "true"
    if t is Bottom:
        return "false"
    if t is Reg:
        return f"up{phi.register}"
    if t is NReg:
        return f"!up{phi.register}"
    if t is Implies:
        s = f"{_fmt(phi.left, 1)} -> {_fmt(phi.right, 0)}"
        return f"({s})" if prec > 0 else s
    if t is Or:
        s = f"{_fmt(phi.left, 1)} | {_fmt(phi.right, 2)}"
        return f"({s})" if prec > 1 else s
    if t is And:
        s = f"{_fmt(phi.left, 2)} & {_fmt(phi.right, 3)}"
        return f"({s})" if prec > 2 else s
    if t is Until:
        s = f"{_fmt(phi.left, 4)} U {_fmt(phi.right, 3)}"
        return f"({s})" if prec > 3 else s
    if t is Since:
        s = f"{_fmt(phi.left, 4)} Up {_fmt(phi.right, 3)}"
        return f"({s})" if prec > 3 else s
    if t is DualUntil:
        # no surface token: render via negation
        return _fmt(Not(Until(Not(phi.left), Not(phi.right))), prec)
    if t is DualSince:
        return _fmt(Not(Since(Not(phi.left), Not(phi.right))), prec)
    if t is WNext:
        return _fmt(Not(Next(Not(phi.body))), prec)
    if t is WPrev:
        return _fmt(Not(Prev(Not(phi.body))), prec)
    if t is Not:
        return f"!{_fmt(phi.body, 4)}"
    if t is Freeze:
        return f"store{phi.register} {_fmt(phi.body, 4)}"
    op = {Next: "X", Prev: "Xp", Future: "F", Past: "Fp",
          Always: "G", PastAlways: "Gp"}[t]
    return f"{op} {_fmt(phi.body, 4)}"


def format_ltl(phi: Formula) -> str:
    """Render to the surface grammar; duals print via their negations."""
    return _fmt(phi, 0)
