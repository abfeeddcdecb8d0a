"""Linear temporal logic with the freeze quantifier, over data words.

The AST keeps surface sugar (F, G, their past versions, implication) so that
fragment classification sees what the user wrote; ``desugar`` eliminates it
before the automaton translation.  Dual operators (weak next, dual until,
negated atoms/registers) exist so negation normal form stays inside the AST.
The structural walkers of this module and of ``fo`` go through ``fold``, so
no depth of nesting costs them recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import and_, is_
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

_UNARY = frozenset({Not, Next, WNext, Prev, WPrev, Future, Past, Always, PastAlways, Freeze})
_BINARY = frozenset({And, Or, Implies, Until, DualUntil, Since, DualSince})
_INNER = _UNARY | _BINARY


def children(phi: Formula) -> tuple[Formula, ...]:
    t = type(phi)
    if t in _BINARY:
        return (phi.left, phi.right)
    return (phi.body,) if t in _UNARY else ()


def _down(phi: Formula, down) -> tuple:
    """Each child of an inner node, paired with ``down``."""
    if type(phi) in _BINARY:
        return ((phi.left, down), (phi.right, down))
    return ((phi.body, down),)


def fold(root, visit, down=None):
    """Post-order fold of a formula tree, of either logic, over explicit
    stacks.

    ``visit(node, down)`` returns ``(build, pairs)``: the ``(child, down)``
    pairs are folded first, in order, and ``build`` makes the node's value
    from their values.  A node without pairs returns its value in place of
    ``build``.
    """
    # Visiting the right child first lists the nodes in reverse post-order.
    visited = []
    todo = [(root, down)]
    while todo:
        visited.append(record := visit(*todo.pop()))
        todo += record[1]
    values: list = []
    for build, pairs in reversed(visited):
        if not pairs:
            values.append(build)
        elif len(pairs) == 1:
            values[-1] = build(values[-1])
        else:
            args = values[-len(pairs):]
            del values[-len(pairs):]
            values.append(build(*args))
    return values[0]


def _same(value):
    return value


def big_and(parts) -> Formula:
    """The conjunction of the parts as a tree of logarithmic depth: the
    sentences of large machines join thousands.  True parts are dropped, and
    a false part makes the whole false."""
    return _balanced(parts, And, TOP, BOT)


def big_or(parts) -> Formula:
    """The disjunction, as ``big_and`` builds the conjunction."""
    return _balanced(parts, Or, BOT, TOP)


def _balanced(parts, node, unit, zero) -> Formula:
    kept = []
    for p in parts:
        if type(p) is type(zero):
            return zero
        if type(p) is not type(unit):
            kept.append(p)
    if not kept:
        return unit
    while len(kept) > 1:  # join neighbours, left to right
        joined = [node(a, b) for a, b in zip(kept[::2], kept[1::2])]
        if len(kept) % 2:
            joined.append(kept[-1])
        kept = joined
    return kept[0]


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
    def visit(f: Formula, bound: frozenset[int]):
        t = type(f)
        if t is Reg or t is NReg:
            return frozenset() if f.register in bound else frozenset([f.register]), ()
        if t is Freeze:
            return _same, ((f.body, bound | {f.register}),)
        if t in _INNER:
            return frozenset.union, _down(f, bound)
        return frozenset(), ()

    return fold(phi, visit, frozenset())


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


_SUGAR = {
    Future: lambda body: Until(TOP, body),
    Past: lambda body: Since(TOP, body),
    Always: lambda body: Not(Until(TOP, Not(body))),
    PastAlways: lambda body: Not(Since(TOP, Not(body))),
    Implies: lambda left, right: Or(Not(left), right),
}


def desugar(phi: Formula) -> Formula:
    """Eliminate F, G, their past versions and implication.

    F phi becomes true U phi; G phi becomes the negation of F of the
    negation, and similarly for the past.  Duals are left untouched, and a
    subformula without sugar is returned as the very same object.
    """
    return fold(phi, _desugar_visit)


def _desugar_visit(phi: Formula, _):
    t = type(phi)
    if t not in _INNER:
        return phi, ()
    return _SUGAR.get(t) or partial(_rebuild, phi), _down(phi, None)


def _rebuild(phi: Formula, *new: Formula) -> Formula:
    if all(map(is_, new, children(phi))):
        return phi
    return Freeze(phi.register, *new) if type(phi) is Freeze else type(phi)(*new)


_DUAL = {
    And: Or, Or: And, Next: WNext, WNext: Next, Prev: WPrev, WPrev: Prev,
    Until: DualUntil, DualUntil: Until, Since: DualSince, DualSince: Since,
    Atom: NAtom, NAtom: Atom, Reg: NReg, NReg: Reg, Top: Bottom, Bottom: Top,
}


def nnf(phi: Formula) -> Formula:
    """Negation normal form of the desugared formula: negations pushed down
    to dual literals."""
    return fold(phi, _nnf_visit, False)


def _nnf_visit(phi: Formula, neg: bool):
    t = type(phi)
    if t is Not:
        return _same, ((phi.body, not neg),)
    if t is Freeze:
        return partial(Freeze, phi.register), ((phi.body, neg),)
    if t in _SUGAR:  # desugar the node on the way down
        return _nnf_visit(_SUGAR[t](*children(phi)), neg)
    if t not in _DUAL:
        raise TypeError(f"cannot normalize {phi!r}")
    if t in _INNER:
        return (_DUAL[t] if neg else t), _down(phi, neg)
    # a literal: its dual has the same fields
    return (_DUAL[t](*vars(phi).values()) if neg else phi), ()


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
    return FragmentInfo(ops, max_register(phi), is_sentence(phi), least_simple_m(phi))


def least_simple_m(phi: Formula) -> Optional[int]:
    """``classify``'s ``is_simple_Om``: the least m at which phi is simple
    in the one-register fragment, if any.  A fold, so any depth works."""
    info = _simple_scan(phi)
    if info is None:
        return None
    pure, fdepths = info
    if len(fdepths) > 1:
        return None
    if fdepths:
        (fd,) = fdepths
        return fd - 1 if fd - 1 >= max(pure, default=0) else None
    return max(pure, default=0)


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

    def block(f: Formula) -> Formula:
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

    def visit(f: Formula, _):
        t = type(f)
        if t in (Atom, NAtom, Top, Bottom):
            return True, ()
        if t in (Reg, NReg):
            return f.register == 1, ()
        if t is Not:
            return _same, ((f.body, None),)
        if t in (And, Or, Implies):
            return and_, ((f.left, None), (f.right, None))
        if t is Freeze and f.register == 1:
            return _same, ((block(f.body), None),)
        # any other freeze or bare temporal operator (incl. until/dual) -> not simple
        return False, ()

    return (pure, fdepths) if fold(phi, visit) else None


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

_KEYWORDS = {"X", "Xp", "F", "Fp", "G", "Gp", "U", "Up", "true", "false"}
_STORE = re.compile(r"store\d+")
_UP = re.compile(r"up\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


class _Parser:
    """Operator precedence over explicit stacks, so neither a long chain of
    operators nor deep parentheses costs recursion depth.  ``parse_fo`` runs
    it too, with its own tables.

    A subclass gives ``TOKEN``, the pattern of one token after blanks;
    ``INFIX``, which maps an infix token to its binding level (higher binds
    tighter) and constructor; ``RIGHT``, the levels that group to the right;
    ``prefix()``, which reads a prefix operator and returns its constructor,
    or returns None; and ``primary()``, which reads an operand that is not a
    parenthesised group.  Prefix operators bind
    tighter than every infix one.
    """

    TOKEN: re.Pattern
    INFIX: dict
    RIGHT: tuple

    def __init__(self, text: str):
        tokens, pos, match = [], 0, self.TOKEN.match
        while pos < len(text):
            m = match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.tokens, self.k = tokens, 0

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

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        self.k += 1

    def parse(self):
        # per open parenthesis, the (prefixes, operands, operators) around it
        groups: list = []
        infix = self.INFIX
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
                if tok in infix:
                    break
                self.reduce(operands, ops, -1)
                f = operands.pop()
                if not groups:
                    if tok is not None:
                        raise ParseError(f"trailing input {tok!r}", self.pos())
                    return f
                self.expect(")")
                prefixes, operands, ops = groups.pop()
            self.k += 1
            level, op = infix[tok]
            self.reduce(operands, ops, level)
            ops.append((level, op))
            prefixes = self.prefixes()

    def prefixes(self) -> list:
        """The chain of prefix operators before an operand, outermost first."""
        chain = []
        while (op := self.prefix()) is not None:
            chain.append(op)
        return chain

    def reduce(self, operands: list, ops: list, level: int) -> None:
        """Apply the stacked operators that take their right operand before an
        operator at ``level`` comes: those binding tighter, and those of its
        level when it groups to the left.  ``level=-1`` applies them all."""
        while ops and (ops[-1][0] > level or ops[-1][0] == level and level not in self.RIGHT):
            _, op = ops.pop()
            right = operands.pop()
            operands.append(op(operands.pop(), right))


_PREFIX = {"!": Not, "X": Next, "Xp": Prev, "F": Future, "Fp": Past,
           "G": Always, "Gp": PastAlways}


class _LtlParser(_Parser):
    """Infix precedence (low to high): ``->``, ``|``, ``&``, ``U``/``Up``;
    ``->``, ``U`` and ``Up`` group to the right, ``|`` and ``&`` to the
    left.  The prefix operators (!, X, Xp, F, Fp, G, Gp, store<r>) form a
    single tier binding tighter than the infix ones, so ``X a U b`` is
    ``(X a) U b`` and ``store1 X p`` is ``store1 (X p)``.
    """

    TOKEN = re.compile(r"\s*(->|[()&|!]|[A-Za-z_][A-Za-z0-9_.]*)")
    INFIX = {"->": (0, Implies), "|": (1, Or), "&": (2, And), "U": (3, Until),
             "Up": (3, Since)}
    RIGHT = (0, 3)

    def __init__(self, text: str, sigma: Optional[Alphabet]):
        super().__init__(text)
        self.sigma = sigma

    def prefix(self):
        tok = self.peek()
        if tok in _PREFIX:
            op = _PREFIX[tok]
        elif tok is not None and _STORE.fullmatch(tok):
            op = partial(Freeze, int(tok[5:]))
        else:
            return None
        self.k += 1
        return op

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


def parse_ltl(text: str, sigma: Optional[Alphabet] = None) -> Formula:
    """Parse a formula; atoms are checked against ``sigma`` when given."""
    return _LtlParser(text, sigma).parse()


# the parser's tables, by node: a node's operands print at the precedence of
# its level, or one above on the side it does not group to; prefixes at 4
_INFIX_FMT = {op: (level, f"{{}} {tok} {{}}") for tok, (level, op) in _LtlParser.INFIX.items()}
_PREFIX_FMT = {op: f"{tok} " for tok, op in _PREFIX.items()} | {Not: "!"}


def _fmt_visit(phi: Formula, prec: int):
    t = type(phi)
    if t in (DualUntil, DualSince, WNext, WPrev):  # no token: print via negations
        return _fmt_visit(Not(_DUAL[t](*map(Not, children(phi)))), prec)
    if t in _INFIX_FMT:
        level, s = _INFIX_FMT[t]
        right = level in _LtlParser.RIGHT
        pairs = ((phi.left, level + right), (phi.right, level + 1 - right))
        return (f"({s})" if prec > level else s).format, pairs
    if t in _PREFIX_FMT:
        return _PREFIX_FMT[t].__add__, ((phi.body, 4),)
    if t is Freeze:
        return f"store{phi.register} ".__add__, ((phi.body, 4),)
    if t is Atom:
        return phi.letter, ()
    if t is NAtom:
        return f"!{phi.letter}", ()
    if t is Top:
        return "true", ()
    if t is Bottom:
        return "false", ()
    if t is Reg:
        return f"up{phi.register}", ()
    if t is NReg:
        return f"!up{phi.register}", ()
    raise KeyError(t)


def format_ltl(phi: Formula) -> str:
    """Render to the surface grammar; duals print via their negations."""
    return fold(phi, _fmt_visit, 0)
