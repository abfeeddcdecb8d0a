"""Constructive reductions from counter automata back into logic and into
one-register automata, and the budget gadget turning an error-free machine
into an incrementing one.

Runs are encoded as data words whose letters are whole transitions; classes
pair increments with the decrements that consume them, so a zero test is
correct when no unconsumed same-class increment precedes it.  Faulty
decrements are exactly the decrements whose class has no earlier increment,
which is why the plain encoding captures incrementing semantics and the
added past-looking conjunct pins down the error-free one.
"""

from __future__ import annotations

from typing import Optional

from . import ltl
from .ca import CounterAutomaton
from .errors import PreconditionViolation
from .ra import (
    BEnd, BLetter, BUp, RegisterAutomaton, TBottom, TMove, TOr, TStore, TTest,
    TTop, assign_annotations, dual, union, validate,
)
from .words import Alphabet


def transition_letter(t) -> str:
    q, w, op, ctr, q2 = t
    return f"{q}.{w if w is not None else 'eps'}.{op}{ctr}.{q2}"


def hat_alphabet(c: CounterAutomaton) -> Alphabet:
    """The letters of the run encoding, one per transition.  Every
    reduction that encodes runs reads them, so this is where a machine
    without transitions, whose encoding would have no letters, is
    refused."""
    if not c.transitions:
        raise PreconditionViolation("the machine has no transitions, so its run "
                                    "encoding would have an empty alphabet")
    return Alphabet(tuple(transition_letter(t) for t in c.transitions))


class _Table:
    """One machine's lookups, each built once: the letter atom of every
    transition, the transitions of every instruction, and the disjunctions
    of the transitions leaving a location and of those of an instruction."""

    def __init__(self, c: CounterAutomaton):
        self.c = c
        self.atom = {t: ltl.Atom(transition_letter(t)) for t in c.transitions}
        self.by_instr: dict = {}
        for t in c.transitions:
            self.by_instr.setdefault((t[2], t[3]), []).append(t)
        self.leaving_memo: dict = {}
        self.instr_memo: dict = {}

    def atoms(self, ts) -> ltl.Formula:
        return ltl.big_or([self.atom[t] for t in ts])

    def with_instr(self, op: str, ctr: int) -> list:
        return self.by_instr.get((op, ctr), [])

    def leaving(self, q) -> ltl.Formula:
        f = self.leaving_memo.get(q)
        if f is None:
            f = self.leaving_memo[q] = self.atoms(self.c.outgoing(q))
        return f

    def of(self, op: str, ctr: int) -> ltl.Formula:
        f = self.instr_memo.get((op, ctr))
        if f is None:
            f = self.instr_memo[(op, ctr)] = self.atoms(self.with_instr(op, ctr))
        return f


def _not_last() -> ltl.Formula:
    return ltl.Next(ltl.TOP)


def _chain_conjuncts(tab: _Table):
    """Conditions on letters alone: well-formedness, chaining and start."""
    c = tab.c
    yield ltl.Always(tab.atoms(c.transitions))  # every letter is a transition
    yield tab.leaving(c.initial)  # starts at the initial
    chain = []
    for t in c.transitions:
        chain.append(ltl.Implies(
            tab.atom[t], ltl.Or(ltl.Not(_not_last()), ltl.Next(tab.leaving(t[4])))))
    yield ltl.Always(ltl.big_and(chain))


def _class_conjuncts(tab: _Table):
    """Class constraints (no repeated increments or decrements, zero tests
    not preceded by an unconsumed increment), future operators only."""
    of, counters = tab.of, range(1, tab.c.n_counters + 1)

    def once(kind):
        return ltl.Not(ltl.big_or([
            ltl.Future(ltl.And(
                of(kind, ctr),
                ltl.Freeze(1, ltl.Next(ltl.Future(ltl.And(of(kind, ctr), ltl.Reg(1)))))))
            for ctr in counters
        ]))

    yield once("inc")
    yield once("dec")
    # an increment before a zero test must be consumed in between
    yield ltl.Not(ltl.big_or([
        ltl.Future(ltl.And(
            of("inc", ctr),
            ltl.Freeze(1, ltl.And(
                ltl.Next(ltl.Future(of("ifz", ctr))),
                ltl.Not(ltl.Next(ltl.Future(ltl.And(of("dec", ctr), ltl.Reg(1)))))))))
        for ctr in counters
    ]))
    # and never consumed only on the far side of the zero test
    yield ltl.Not(ltl.big_or([
        ltl.Future(ltl.And(
            of("inc", ctr),
            ltl.Freeze(1, ltl.Next(ltl.Future(ltl.And(
                of("ifz", ctr),
                ltl.Next(ltl.Future(ltl.And(of("dec", ctr), ltl.Reg(1))))))))))
        for ctr in counters
    ]))


def ca_to_ltl_finite(c: CounterAutomaton) -> ltl.Formula:
    """A sentence over the transition alphabet whose models project to
    exactly the finite words the incrementing machine accepts."""
    tab = _Table(c)
    final = ltl.Always(ltl.Implies(
        ltl.Not(_not_last()), tab.atoms([t for t in c.transitions if t[4] in c.accepting])))
    return ltl.big_and(list(_chain_conjuncts(tab)) + [final] + list(_class_conjuncts(tab)))


def ca_to_ltl_infinite(c: CounterAutomaton) -> ltl.Formula:
    """The infinitary variant: the final-location conjunct becomes a
    recurrence of transitions leaving accepting locations."""
    tab = _Table(c)
    recur = ltl.Always(ltl.Future(
        tab.atoms([t for t in c.transitions if t[0] in c.accepting])))
    return ltl.big_and(list(_chain_conjuncts(tab)) + [recur] + list(_class_conjuncts(tab)))


def minsky_to_ltl_xffp(c: CounterAutomaton) -> ltl.Formula:
    """The error-free strengthening: every decrement looks back to a
    same-class increment, eliminating faulty decrements."""
    tab = _Table(c)
    back = ltl.big_and([
        ltl.Always(ltl.Implies(
            tab.of("dec", ctr),
            ltl.Freeze(1, ltl.Past(ltl.And(tab.of("inc", ctr), ltl.Reg(1))))))
        for ctr in range(1, c.n_counters + 1)
    ])
    return ltl.And(ca_to_ltl_finite(c), back)


# ---------------------------------------------------------------------------
# The automaton counterpart of the finite-word sentence


class _NraBuilder:
    def __init__(self, sigma: Alphabet):
        self.sigma = sigma
        self.delta: dict = {}
        self.k = 0

    def fresh(self, prefix: str) -> str:
        self.k += 1
        return f"{prefix}{self.k}"

    def add(self, name: str, tf) -> str:
        self.delta[name] = tf
        return name

    def const(self, value: bool) -> str:
        return self.add(self.fresh("t" if value else "f"),
                        TTop() if value else TBottom())

    def letter_chain(self, letters, yes: str, no: str) -> str:
        """Dispatch on membership of the current letter in a set."""
        head = no
        for a in sorted(letters, reverse=True):
            head = self.add(self.fresh("c"), TTest(BLetter(a), yes, head))
        return head

    def or_chain(self, options) -> str:
        options = list(options)
        head = options[-1]
        for o in reversed(options[:-1]):
            head = self.add(self.fresh("o"), TOr(o, head))
        return head

    def finish(self, init: str) -> RegisterAutomaton:
        locs = list(self.delta)
        rank, height = assign_annotations(locs, self.delta)
        a = RegisterAutomaton(self.sigma, tuple(locs), init, 1,
                              self.delta, rank, height)
        errs = validate(a)
        assert not errs, errs
        return a


def _letters_of(ts) -> list:
    return [transition_letter(t) for t in ts]


def violation_automata(c: CounterAutomaton) -> list[RegisterAutomaton]:
    """One-register nondeterministic recognizers, one per condition of the
    run encoding, each accepting exactly the words violating it."""
    sigma = hat_alphabet(c)
    ts = c.transitions
    tab = _Table(c)
    out = []

    # every letter a transition: nothing to violate over this alphabet
    b = _NraBuilder(sigma)
    out.append(b.finish(b.const(False)))

    # the chain: a wrong first letter, or a mismatched adjacent pair
    b = _NraBuilder(sigma)
    top, bot = b.const(True), b.const(False)
    bad_first = b.letter_chain(
        _letters_of([t for t in ts if t[0] != c.initial]), top, bot)
    scan = b.fresh("s")
    checks = bot
    for t in ts:
        bad_next = b.letter_chain(
            _letters_of([t2 for t2 in ts if t2[0] != t[4]]), top, bot)
        move = b.add(b.fresh("x"), TMove(True, False, bad_next))
        checks = b.add(b.fresh("c"),
                       TTest(BLetter(transition_letter(t)), move, checks))
    mv = b.add(b.fresh("x"), TMove(True, False, scan))
    b.add(scan, TOr(checks, mv))
    out.append(b.finish(b.or_chain([bad_first, scan])))

    # the final location: scan to the end, expect a non-accepting target
    b = _NraBuilder(sigma)
    top, bot = b.const(True), b.const(False)
    bad_last = b.letter_chain(
        _letters_of([t for t in ts if t[4] not in c.accepting]), top, bot)
    chk = b.add(b.fresh("e"), TTest(BEnd(), bad_last, bot))
    scan = b.fresh("s")
    mv = b.add(b.fresh("x"), TMove(True, False, scan))
    b.add(scan, TOr(chk, mv))
    out.append(b.finish(scan))

    # repeated same-class increments, then decrements
    for kind in ("inc", "dec"):
        b = _NraBuilder(sigma)
        top, bot = b.const(True), b.const(False)
        starts = []
        for ctr in range(1, c.n_counters + 1):
            letters = _letters_of(tab.with_instr(kind, ctr))
            if not letters:
                continue
            hunt = b.fresh("h")
            same = b.add(b.fresh("u"), TTest(BUp(1), top, bot))
            chk = b.letter_chain(letters, same, bot)
            mv2 = b.add(b.fresh("x"), TMove(True, False, hunt))
            b.add(hunt, TOr(chk, mv2))
            store = b.add(b.fresh("r"), TStore(1, b.add(b.fresh("x"), TMove(True, False, hunt))))
            starts.append(b.letter_chain(letters, store, bot))
        scan = b.fresh("s")
        mv = b.add(b.fresh("x"), TMove(True, False, scan))
        b.add(scan, TOr(b.or_chain(starts + [bot]), mv))
        out.append(b.finish(scan))

    # a wrong zero test: an increment followed by no same-class decrement
    # until a zero test of that counter occurs
    b = _NraBuilder(sigma)
    top, bot = b.const(True), b.const(False)
    starts = []
    for ctr in range(1, c.n_counters + 1):
        incs = _letters_of(tab.with_instr("inc", ctr))
        decs = _letters_of(tab.with_instr("dec", ctr))
        ifzs = _letters_of(tab.with_instr("ifz", ctr))
        if not incs or not ifzs:
            continue
        fx = b.fresh("x")  # forward reference: move on and chase again
        zchain = b.letter_chain(ifzs, top, fx)
        same = b.add(b.fresh("u"), TTest(BUp(1), bot, fx))
        dchain = b.letter_chain(decs, same, zchain)
        b.add(fx, TMove(True, False, dchain))
        store = b.add(b.fresh("r"),
                      TStore(1, b.add(b.fresh("x"), TMove(True, False, dchain))))
        starts.append(b.letter_chain(incs, store, bot))
    scan = b.fresh("s")
    mv = b.add(b.fresh("x"), TMove(True, False, scan))
    b.add(scan, TOr(b.or_chain(starts + [bot]), mv))
    out.append(b.finish(scan))

    return out


def ca_to_ura1(c: CounterAutomaton) -> RegisterAutomaton:
    """A one-register universal automaton accepting exactly the encodings of
    accepting runs: the dual of the union of the violation recognizers."""
    parts = violation_automata(c)
    u = parts[0]
    for p in parts[1:]:
        u = union(u, p)
    return dual(u)


# ---------------------------------------------------------------------------
# Two-register encoding of error-free machines


def tilde_alphabet(c: CounterAutomaton) -> Alphabet:
    his = [f"hi{ctr}" for ctr in range(1, c.n_counters + 1)]
    los = [f"lo{ctr}" for ctr in range(1, c.n_counters + 1)]
    marks = [x for pair in zip(his, los) for x in pair]
    return Alphabet(tuple(marks) + hat_alphabet(c).letters)


def _xk(k: int, f: ltl.Formula) -> ltl.Formula:
    for _ in range(k):
        f = ltl.Next(f)
    return f


def _weak_xk(k: int, f: ltl.Formula) -> ltl.Formula:
    """k steps ahead if that position exists, vacuously true otherwise."""
    return ltl.Or(ltl.Not(_xk(k, ltl.TOP)), _xk(k, f))


def minsky_to_ltl_2reg(c: CounterAutomaton) -> ltl.Formula:
    """Two-register sentence over block-structured words encoding error-free
    runs: counters are chains of classes, the low mark trails the high mark
    by the counter value.  Persistence of untouched marks across blocks is
    enforced explicitly; block-final conditions are weakened at the word end.
    """
    n = c.n_counters
    ts = c.transitions
    tab = _Table(c)
    block = 2 * n + 1
    hi = [ltl.Atom(f"hi{ctr}") for ctr in range(1, n + 1)]
    lo = [ltl.Atom(f"lo{ctr}") for ctr in range(1, n + 1)]
    t_any = tab.atoms(ts)
    conj: list[ltl.Formula] = []

    # (i) block shape, anchored at the first position
    conj.append(hi[0])
    shape = []
    for cix in range(n):
        shape.append(ltl.Implies(hi[cix], ltl.Next(lo[cix])))
        nxt = hi[cix + 1] if cix + 1 < n else t_any
        shape.append(ltl.Implies(lo[cix], ltl.Next(nxt)))
    shape.append(ltl.Implies(t_any, ltl.Or(ltl.Not(_not_last()), ltl.Next(hi[0]))))
    conj.append(ltl.Always(ltl.big_and(shape)))

    # (ii) letters are transitions: vacuous over this alphabet
    conj.append(ltl.TOP)

    # (iii) the control chain
    conj.append(_xk(2 * n, tab.leaving(c.initial)))
    chain = []
    for t in ts:
        chain.append(ltl.Implies(tab.atom[t], _weak_xk(block, tab.leaving(t[4]))))
    conj.append(ltl.Always(ltl.big_and(chain)))

    # (iv) the final block accepts
    conj.append(ltl.Always(ltl.Implies(
        ltl.And(t_any, ltl.Not(_not_last())),
        tab.atoms([t for t in ts if t[4] in c.accepting]))))

    # (v) initially every counter is zero: hi and lo share a class
    for cix in range(n):
        conj.append(_xk(2 * cix, ltl.Freeze(1, ltl.Next(ltl.Reg(1)))))

    for cix in range(n):
        ctr = cix + 1
        incs, decs, ifzs = tab.of("inc", ctr), tab.of("dec", ctr), tab.of("ifz", ctr)
        others_inc = tab.atoms([t for t in ts if not (t[2] == "inc" and t[3] == ctr)])
        others_dec = tab.atoms([t for t in ts if not (t[2] == "dec" and t[3] == ctr)])
        to_t_from_hi = 2 * (n - cix - 1) + 2
        to_t_from_lo = 2 * (n - cix - 1) + 1

        # (vi) after an increment the high mark is globally fresh and the
        # low mark persists
        conj.append(ltl.Always(ltl.Implies(
            hi[cix],
            ltl.Freeze(1, ltl.Not(ltl.Future(
                ltl.And(incs, _xk(2 * cix + 1, ltl.Reg(1)))))))))
        conj.append(ltl.Always(ltl.Implies(
            ltl.And(lo[cix], _xk(to_t_from_lo, incs)),
            ltl.Or(ltl.Not(_xk(block, ltl.TOP)),
                   ltl.Freeze(1, _xk(block, ltl.Reg(1)))))))

        # (vii) a decrement needs a strictly positive counter
        conj.append(ltl.Always(ltl.Implies(
            ltl.And(hi[cix], _xk(to_t_from_hi, decs)),
            ltl.Freeze(1, ltl.Next(ltl.Not(ltl.Reg(1)))))))

        # (viii) after a decrement the high mark persists ...
        conj.append(ltl.Always(ltl.Implies(
            ltl.And(hi[cix], _xk(to_t_from_hi, decs)),
            ltl.Or(ltl.Not(_xk(block, ltl.TOP)),
                   ltl.Freeze(1, _xk(block, ltl.Reg(1)))))))
        # ... and the low mark steps to the class that succeeded its own
        conj.append(ltl.Always(ltl.Implies(
            hi[cix],
            ltl.Freeze(1, ltl.Or(
                ltl.Not(_xk(block, ltl.TOP)),
                _xk(block, ltl.Implies(
                    ltl.Not(ltl.Reg(1)),
                    ltl.Freeze(2, ltl.Always(ltl.Implies(
                        ltl.big_and([lo[cix], ltl.Reg(1), _xk(to_t_from_lo, decs)]),
                        ltl.Or(ltl.Not(_xk(block, ltl.TOP)),
                               _xk(block, ltl.Reg(2)))))))))))))

        # (ix) a zero test needs hi and lo in one class
        conj.append(ltl.Always(ltl.Implies(
            ltl.And(hi[cix], _xk(to_t_from_hi, ifzs)),
            ltl.Freeze(1, _xk(2 * cix + 1, ltl.Reg(1))))))

        # persistence of untouched marks (implied by the intended encoding)
        conj.append(ltl.Always(ltl.Implies(
            ltl.And(hi[cix], _xk(to_t_from_hi, others_inc)),
            ltl.Or(ltl.Not(_xk(block, ltl.TOP)),
                   ltl.Freeze(1, _xk(block, ltl.Reg(1)))))))
        conj.append(ltl.Always(ltl.Implies(
            ltl.And(lo[cix], _xk(to_t_from_lo, others_dec)),
            ltl.Or(ltl.Not(_xk(block, ltl.TOP)),
                   ltl.Freeze(1, _xk(block, ltl.Reg(1)))))))

    return ltl.big_and(conj)


# ---------------------------------------------------------------------------
# The budget gadget


def _deterministic_shape(c: CounterAutomaton) -> Optional[str]:
    if c.n_counters != 2:
        return "exactly two counters required"
    if len(set(c.alphabet.letters)) != 1:
        return "singleton alphabet required"
    if any(t[1] is None for t in c.transitions):
        return "silent transitions are not allowed"
    for q in c.locations:
        out = c.outgoing(q)
        if len(out) <= 1:
            continue
        if len(out) == 2:
            ops = sorted((t[2], t[3]) for t in out)
            if ops[0][0] == "dec" and ops[1][0] == "ifz" and ops[0][1] == ops[1][1]:
                continue
        return f"location {q!r} is not deterministic"
    return None


def minsky_to_incrementing_fig4(c: CounterAutomaton) -> CounterAutomaton:
    """The repeat/while budget machine: simulate the error-free machine with
    a budget that grows by one per round; its single accepting location sits
    at the end of the round, so it has an accepting infinite run exactly when
    the simulated machine never accepts.

    Counters: 1 and 2 shadow the simulated ones, 3 counts steps, 4 is the
    budget seed, 5 the working budget.
    """
    reason = _deterministic_shape(c)
    if reason:
        raise PreconditionViolation(reason)
    C1, C2, CP, D, DP = 1, 2, 3, 4, 5
    letter = c.alphabet.letters[0]
    trans: list = []

    def t(src, w, op, ctr, dst):
        trans.append((src, w, op, ctr, dst))

    # copy the seed into the working budget, keeping the seed via the
    # step counter as scratch
    t("r0", None, "dec", D, "r0b")
    t("r0b", None, "inc", DP, "r0c")
    t("r0c", None, "inc", CP, "r0")
    t("r0", None, "ifz", D, "r0d")
    t("r0d", None, "dec", CP, "r0e")
    t("r0e", None, "inc", D, "r0d")
    t("r0d", None, "ifz", CP, "w0")

    # the while loop over the working budget
    t("w0", None, "ifz", DP, "end0")
    t("w0", None, "dec", DP, "w0b")
    t("w0b", None, "inc", DP, ("sim", c.initial))

    for q in c.locations:
        sq = ("sim", q)
        if q in c.accepting:
            continue  # the simulation stops: no outgoing transitions
        t(sq, None, "ifz", DP, "r1")
        t(sq, None, "dec", DP, ("tax", q))
        t(("tax", q), None, "inc", CP, ("op", q))
        for tr in c.outgoing(q):
            _q, _w, op, ctr, q2 = tr
            shadow = C1 if ctr == 1 else C2
            if op == "inc":
                t(("op", q), None, "ifz", DP, "r1")
                t(("op", q), None, "dec", DP, ("mid", q, transition_letter(tr)))
                t(("mid", q, transition_letter(tr)), None, "inc", shadow, ("sim", q2))
            elif op == "dec":
                t(("op", q), None, "dec", shadow, ("mid", q, transition_letter(tr)))
                t(("mid", q, transition_letter(tr)), None, "inc", DP, ("sim", q2))
            else:
                t(("op", q), None, "ifz", shadow, ("sim", q2))

    # restore: move the spent resources back into the budget, minus one
    t("r1", None, "dec", C1, "r1b")
    t("r1b", None, "inc", DP, "r1")
    t("r1", None, "ifz", C1, "r2")
    t("r2", None, "dec", C2, "r2b")
    t("r2b", None, "inc", DP, "r2")
    t("r2", None, "ifz", C2, "r3")
    t("r3", None, "dec", CP, "r3b")
    t("r3b", None, "inc", DP, "r3")
    t("r3", None, "ifz", CP, "r4")
    t("r4", None, "dec", DP, "w0")

    # round completed: grow the seed and mark the visit
    t("end0", letter, "ifz", CP, "acc")
    t("acc", None, "inc", D, "r0")

    locs = []
    seen = set()
    for tr in trans:
        for x in (tr[0], tr[4]):
            if x not in seen:
                seen.add(x)
                locs.append(x)
    for q in c.locations:
        if ("sim", q) not in seen:
            seen.add(("sim", q))
            locs.append(("sim", q))
    return CounterAutomaton(c.alphabet, tuple(locs), "r0", 5, tuple(trans),
                            frozenset({"acc"}))
