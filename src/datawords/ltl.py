"""Linear temporal logic with the freeze quantifier, over data words.

The AST keeps surface sugar (F, G, their past versions, implication) so that
fragment classification sees what the user wrote; ``nnf`` desugars each node
on its way down, so the automaton translation never sees it.  Dual operators
(weak next, dual until, negated atoms/registers) exist so negation normal
form stays inside the AST.  The structural walkers of this module and of
``fo`` go through ``fold``, so no depth of nesting costs them recursion.  The
semantics is one labeling, path model checking as in Markey & Schnoebelen
(CONCUR 2003), also in one ``fold``: ``sat_bounded`` labels every data word
of one length at once, and ``eval_ltl`` labels its one word, each handing the
labeler the masks of its letters and classes.  Only U and S take a fixpoint:
the duals and the sugar are labeled as U or S under negation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from operator import and_, is_
from typing import Iterator, Optional

from .errors import ForeignValuation, ParseError, UnknownAtom
from .words import Alphabet, DataWord, make_data_word, set_partitions


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


def child_pairs(phi: Formula, down) -> tuple:
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


def same(value):
    """The value of a node whose ``fold`` value is its only pair's."""
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


def _nodes(phi: Formula) -> Iterator[Formula]:
    """Every node of the tree, parents before children, and a shared subtree
    once per occurrence: an explicit stack, and no formula is hashed."""
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(children(f))


def size(phi: Formula) -> int:
    """Node count of the formula tree (shared subtrees counted repeatedly)."""
    return sum(1 for _ in _nodes(phi))


def atoms(phi: Formula) -> frozenset[str]:
    return frozenset(f.letter for f in _nodes(phi) if type(f) is Atom or type(f) is NAtom)


def free_registers(phi: Formula) -> frozenset[int]:
    def visit(f: Formula, bound: frozenset[int]):
        t = type(f)
        if t is Reg or t is NReg:
            return frozenset() if f.register in bound else frozenset([f.register]), ()
        if t is Freeze:
            return same, ((f.body, bound | {f.register}),)
        if t in _INNER:
            return frozenset.union, child_pairs(f, bound)
        return frozenset(), ()

    return fold(phi, visit, frozenset())


def max_register(phi: Formula) -> int:
    return max((f.register for f in _nodes(phi) if type(f) in (Freeze, Reg, NReg)), default=0)


def is_sentence(phi: Formula) -> bool:
    return not free_registers(phi)


# ---------------------------------------------------------------------------
# Semantics


def eval_ltl(w: DataWord, i: int, v: dict[int, int], phi: Formula) -> bool:
    """The satisfaction relation sigma, i |=_v phi.

    ``v`` maps register indices to class indices of ``w``.  An undefined
    register makes a register test false.  The word is labeled as one
    chunk of ``sat_bounded``, a single ``len(w)``-bit block, with the
    registers of ``v`` bound at the root; the answer is bit i of the root's
    label under ``v``.
    """
    w.check_position(i)
    for cls in v.values():
        if not 0 <= cls < w.num_classes():
            raise ForeignValuation(f"class {cls} is not a class of the word")
    n = len(w)
    classes = [0] * n  # a mask per index below n: tables keep the n-ary layout
    letters: dict[str, int] = {}
    for j, (a, c) in enumerate(zip(w.letters, w.class_of)):
        classes[c] |= 1 << j
        letters[a] = letters.get(a, 0) | 1 << j
    regs, table = fold(phi, _Chunk(n, 1, classes, letters).visit, frozenset(v))
    k = 0
    for r in regs:
        k = k * n + v[r]
    return bool(table[k] >> i & 1)


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
    return _SUGAR.get(t) or partial(_rebuild, phi), child_pairs(phi, None)


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
        return same, ((phi.body, not neg),)
    if t is Freeze:
        return partial(Freeze, phi.register), ((phi.body, neg),)
    if t in _SUGAR:  # desugar the node on the way down
        return _nnf_visit(_SUGAR[t](*children(phi)), neg)
    if t not in _DUAL:
        raise TypeError(f"cannot normalize {phi!r}")
    if t in _INNER:
        return (_DUAL[t] if neg else t), child_pairs(phi, neg)
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
    ops = frozenset(_SURFACE_OPS[type(f)] for f in _nodes(phi) if type(f) in _SURFACE_OPS)
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


def freeze_block(f: Formula) -> tuple[int, bool, Formula]:
    """Read the body f of a freeze as X^k [F] or Xp^k [Fp] and a rest:
    returns k, negative for Xp, whether the F or Fp follows, and the rest."""
    k, fwd = 0, None  # fwd: None before the first step, then its direction
    while isinstance(f, (Next, Prev)) and fwd in (None, isinstance(f, Next)):
        fwd, k, f = isinstance(f, Next), k + 1, f.body
    signed = -k if fwd is False else k
    if fwd is not False and isinstance(f, Future) or fwd is not True and isinstance(f, Past):
        return signed, True, f.body
    return signed, False, f


def _simple_scan(phi: Formula) -> Optional[tuple[set[int], set[int]]]:
    """Collect operator-block depths of a simple formula.

    Returns (pure next depths, next-then-eventually depths), or None when the
    formula is not simple for any m:  a temporal operator not heading a
    freeze block, a register other than 1, or an until makes it unsuitable.
    """
    pure: set[int] = set()
    fdepths: set[int] = set()

    def block(f: Formula) -> Formula:
        k, eventually, rest = freeze_block(f)
        if eventually:
            fdepths.add(abs(k))
        elif k:
            pure.add(abs(k))
        return rest

    def visit(f: Formula, _):
        t = type(f)
        if t in (Atom, NAtom, Top, Bottom):
            return True, ()
        if t in (Reg, NReg):
            return f.register == 1, ()
        if t is Not:
            return same, ((f.body, None),)
        if t in (And, Or, Implies):
            return and_, ((f.left, None), (f.right, None))
        if t is Freeze and f.register == 1:
            return same, ((block(f.body), None),)
        # any other freeze or bare temporal operator (incl. until/dual) -> not simple
        return False, ()

    return (pure, fdepths) if fold(phi, visit) else None


# ---------------------------------------------------------------------------
# Bounded satisfiability by bit-parallel labeling


_CHUNK_BITS = 1 << 16  # the most bits of one label, unless one string needs more


def sat_bounded(phi: Formula, sigma: Alphabet, max_len: int) -> Optional[DataWord]:
    """The first data word of ``enumerate_data_words(sigma, max_len)`` that
    satisfies phi at position 0 with no register defined, if any.

    Every subformula is labeled with the positions where it holds, for all
    the words of one length at once.  A length-n word is one n-bit block of
    a Python ``int``, position i at bit i of its block; the blocks follow
    the enumeration (letter strings in product order, then set partitions
    in restricted-growth order), so the first model is the lowest bit of the
    root's label that starts a block.  The strings of one length are taken
    in consecutive chunks of at most ``_CHUNK_BITS`` bits (at least one
    string each), so memory stays bounded and a long run stops at the first
    chunk with a model.  Each chunk gets its class masks and the masks of
    the letters phi mentions from here; ``_Chunk`` labels U and S by
    fixpoint, and the duals and the sugar as U or S under negation.  The
    walk is one ``fold``: any depth of nesting works, and no formula is
    hashed.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    letters = sigma.letters
    k = len(letters)
    used = [(a, letters.index(a)) for a in atoms(phi) if a in letters]
    for n in range(1, max_len + 1):
        count, classes = _layout(n)
        width = count * n  # bits per letter string
        per_chunk = max(1, _CHUNK_BITS // width)
        total = k ** n
        for s0 in range(0, total, per_chunk):
            m = min(per_chunk, total - s0)
            chunk = _Chunk(n, m * count, [_tile(c, m, width) for c in classes],
                           {a: _letter(idx, k, n, width, s0, m) for a, idx in used})
            _, (root,) = fold(phi, chunk.visit, frozenset())
            if found := root & chunk.first:
                s, p = divmod(((found & -found).bit_length() - 1) // n, count)
                string = [letters[(s0 + s) // k ** (n - 1 - i) % k] for i in range(n)]
                blocks = [[i for i in range(n) if c >> (p * n + i) & 1] for c in classes]
                return make_data_word(string, filter(None, blocks), sigma)
    return None


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[int, tuple[int, ...]]:
    """The number of partitions of n positions, and per class index the
    bits of its positions when each partition, in restricted-growth order,
    is an n-bit block."""
    partitions = list(set_partitions(n))
    rows = [bytearray(len(partitions) * n // 8 + 1) for _ in range(n)]  # no quadratic int ORs
    for p, blocks in enumerate(partitions):
        for c, block in enumerate(blocks):
            for i in block:
                bit = p * n + i
                rows[c][bit >> 3] |= 1 << (bit & 7)
    return len(partitions), tuple(int.from_bytes(row, "little") for row in rows)


def _tile(x: int, count: int, spacing: int) -> int:
    """``count`` copies of x, ``spacing`` bits apart from bit 0, which must
    not overlap: built by doubling, in time linear in the bits (a product
    with a repunit, or the repunit's division formula, is slower on masks
    of many thousand bits)."""
    out, block, size, offset = 0, x, 1, 0  # block: size copies
    while count:
        if count & 1:
            out |= block << offset * spacing
            offset += size
        count >>= 1
        if count:
            block |= block << size * spacing
            size *= 2
    return out


def _letter(idx: int, k: int, n: int, width: int, s0: int, m: int) -> int:
    """The positions carrying letter number idx of k in the m letter strings
    of length n from number s0, each string ``width`` bits wide."""
    bits = 0  # bit t * width + i: string s0 + t has the letter at position i
    for i in range(n):
        run = k ** (n - 1 - i)  # strings in a row with the same letter at i
        period = run * k
        if period <= m:  # replicate one period over the chunk, then cut
            phase = s0 % period
            pattern = _tile(1, run, width) << idx * run * width
            col = _tile(pattern, -(-(phase + m) // period), period * width) >> phase * width
            col &= (1 << m * width) - 1
        else:  # at most k + 1 runs meet the chunk
            col = 0
            for u in range(s0 - s0 % run, s0 + m, run):
                if u // run % k == idx:
                    lo, hi = max(u, s0), min(u + run, s0 + m)
                    col |= _tile(1, hi - lo, width) << (lo - s0) * width
        bits |= col << i
    return _tile(bits, width // n, n)  # the string's letters in each partition


class _Chunk:
    """The labeling of formulas on ``blocks`` words of length n, word t at
    the n-bit block from bit t * n, with the masks the caller supplies:
    ``classes``, per class index the positions of that class, and
    ``letters``, per letter the positions carrying it (a letter without a
    mask labels nothing).  The operators take their labels from ``_OPS``:
    U and S by fixpoint, the duals and the sugar as U or S under negation.

    A label is ``(regs, table)``: ``regs`` is the sorted tuple of the
    registers the node tests under enclosing freezes, and ``table`` holds
    one bitset per assignment of them to class indices, in product order.
    A register no freeze binds is undefined, so testing it is false, and a
    freeze whose body tests no register is labeled once, so nested freezes
    cost no fan-out.
    """

    def __init__(self, n: int, blocks: int, classes: list, letters: dict):
        self.n, self.classes, self.letters = n, classes, letters
        self.first = _tile(1, blocks, n)
        self.last = self.first << (n - 1)
        self.full = full = (1 << blocks * n) - 1
        self.not_first, self.not_last = full ^ self.first, full ^ self.last

    def visit(self, f: Formula, bound: frozenset):
        t = type(f)
        if t is Atom:
            return ((), [self.letters.get(f.letter, 0)]), ()
        if t is NAtom:
            return ((), [self.full ^ self.letters.get(f.letter, 0)]), ()
        if t is Top:
            return ((), [self.full]), ()
        if t is Bottom:
            return ((), [0]), ()
        if t is Reg or t is NReg:
            if f.register not in bound:  # undefined: up is false, !up true
                return ((), [0 if t is Reg else self.full]), ()
            table = self.classes if t is Reg else [self.full ^ c for c in self.classes]
            return ((f.register,), table), ()
        if t is Freeze:
            return partial(self.freeze, f.register), ((f.body, bound | {f.register}),)
        if t in _OPS:
            return partial(self.lift, _OPS[t]), child_pairs(f, bound)
        raise TypeError(f"unknown formula node {f!r}")

    def freeze(self, r: int, label):
        """Read the body at each position under r := the position's class."""
        regs, table = label
        if r not in regs:
            return label
        n, j = self.n, regs.index(r)
        stride = n ** (len(regs) - 1 - j)
        out = []
        for hi in range(0, len(table), n * stride):
            for lo in range(hi, hi + stride):
                acc = 0
                for c, positions in enumerate(self.classes):
                    acc |= table[lo + c * stride] & positions
                out.append(acc)
        return regs[:j] + regs[j + 1:], out

    def lift(self, op, left, right=None):
        """op on the children's tables, assignment by assignment; a label
        without registers holds under every assignment."""
        lr, lt = left
        if right is None:
            return lr, [op(self, x) for x in lt]
        rr, rt = right
        if not lr:
            lt, lr = lt * len(rt), rr
        elif not rr:
            rt = rt * len(lt)
        elif lr != rr:
            regs = tuple(sorted(set(lr) | set(rr)))
            lt, rt, lr = self.widen(lr, lt, regs), self.widen(rr, rt, regs), regs
        return lr, [op(self, x, y) for x, y in zip(lt, rt)]

    def widen(self, regs: tuple, table: list, wide: tuple) -> list:
        """The table over the registers ``wide`` (a superset of ``regs``)."""
        where = [wide.index(r) for r in regs]
        out = []
        for vals in product(range(self.n), repeat=len(wide)):
            k = 0
            for j in where:
                k = k * self.n + vals[j]
            out.append(table[k])
        return out


def _until(c: _Chunk, left: int, right: int) -> int:
    """The fixpoint ``x = right | left & X x`` from ``x = right``, exact at
    the end of each block, so n - 1 steps reach every position; ``left``
    masked by ``not_last`` keeps a block from reading the next one."""
    x, left = right, left & c.not_last
    for _ in range(c.n - 1):
        x = right | left & x >> 1
    return x


def _since(c: _Chunk, left: int, right: int) -> int:
    """``_until`` mirrored: ``x = right | left & Xp x``."""
    x, left = right, left & c.not_first
    for _ in range(c.n - 1):
        x = right | left & x << 1
    return x


# Each operator's label from its children's labels x and y on the chunk c.
_OPS = {
    Not: lambda c, x: c.full ^ x, And: lambda c, x, y: x & y, Or: lambda c, x, y: x | y,
    Implies: lambda c, x, y: (c.full ^ x) | y,
    Next: lambda c, x: x >> 1 & c.not_last, WNext: lambda c, x: x >> 1 & c.not_last | c.last,
    Prev: lambda c, x: x << 1 & c.not_first, WPrev: lambda c, x: x << 1 & c.not_first | c.first,
    Until: _until, Since: _since,
    DualUntil: lambda c, x, y: c.full ^ _until(c, c.full ^ x, c.full ^ y),
    DualSince: lambda c, x, y: c.full ^ _since(c, c.full ^ x, c.full ^ y),
    Future: lambda c, x: _until(c, c.full, x), Past: lambda c, x: _since(c, c.full, x),
    Always: lambda c, x: c.full ^ _until(c, c.full, c.full ^ x),
    PastAlways: lambda c, x: c.full ^ _since(c, c.full, c.full ^ x),
}


# ---------------------------------------------------------------------------
# Parsing and printing

_KEYWORDS = {"X", "Xp", "F", "Fp", "G", "Gp", "U", "Up", "true", "false"}
_STORE = re.compile(r"store\d+")
_UP = re.compile(r"up\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


class OperatorParser:
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
            if not m:  # the blanks a token may follow are not to blame
                rest = text[pos:]
                pos += len(rest) - len(rest.lstrip())
                if pos == len(text):
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


class _LtlParser(OperatorParser):
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
            op = partial(Freeze, self.register(tok[5:]))
        else:
            return None
        self.k += 1
        return op

    def register(self, digits: str) -> int:
        """The register of a store or up token: registers count from 1."""
        if (r := int(digits)) < 1:
            raise ParseError(f"register {r} out of range: registers count from 1", self.pos())
        return r

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
            r = self.register(tok[2:])
            self.take()
            return Reg(r)
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
