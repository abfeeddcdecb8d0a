"""The four workloads: instance generation (the set-up) and query rounds.

A workload is built from the library modules and the seed.  It hands out
rounds: lists of queries with the same make-up every round, so a run that
stops at a round boundary always measures the same mix.  A query has a key
naming its instance, a ``run`` that only calls the library (the timed part),
a ``check`` that judges the answer outside the timed interval, and a
``summary`` that digests the answer so that repeats of an instance can be
compared with its first, checked, answer.

Library functions are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import random
import re
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import oracles
from verdicts import EMPTY, NONEMPTY, UNKNOWN, Verdict, read_verdict

ROOT = Path(__file__).resolve().parent.parent


class Outcome(NamedTuple):
    decided: bool
    error: Optional[str] = None


class Query(NamedTuple):
    key: tuple
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    summary: Callable[[object], object] = read_verdict


def _same(out):
    return out


def corpus_text(name: str) -> str:
    """A shipped formula without its ``alphabet:`` header line."""
    lines = (ROOT / "corpus" / name).read_text(encoding="utf-8").splitlines()
    return " ".join(l for l in lines if not l.startswith("alphabet:")).strip()


class Case(NamedTuple):
    """A structured sentence with its known answers and its circle horizon."""
    name: str
    text: str
    finite: str  # does it have a finite model?
    infinite: str  # an infinite one?
    horizon: int  # circle checks every letter word up to this length


def structured_cases() -> list[Case]:
    phi = corpus_text("example22.ltl")
    return [
        Case("phi", phi, NONEMPTY, NONEMPTY, 4),
        Case("phi-Fa-Gnotb", f"({phi}) & F a & G !b", EMPTY, EMPTY, 5),
        Case("b-never-again",
             "G (a -> store1 X F (b & up1)) & G (b -> store1 X G !up1) & F a",
             EMPTY, NONEMPTY, 2),
        Case("phi-b-distinct", f"({phi}) & G (b -> store1 X G (b -> !up1))",
             EMPTY, NONEMPTY, 2),
        Case("phi-b-then-a", f"({phi}) & G (b -> X a)", EMPTY, NONEMPTY, 3),
        Case("a-then-no-b", "G (a -> store1 X G (b -> !up1))", NONEMPTY, NONEMPTY, 5),
        Case("some-match", "F (a & store1 X F (b & up1))", NONEMPTY, NONEMPTY, 5),
    ]


def compile_case(lib, case: Case, sigma):
    return lib.ltl2ra.ltl_to_ara(lib.ltl.parse_ltl(case.text, sigma), sigma)


def letter_words(letters, max_len: int) -> list[tuple]:
    return [w for n in range(1, max_len + 1) for w in itertools.product(letters, repeat=n)]


# --- random instances ---------------------------------------------------------------

def random_xu_sentence(rng, ltl, size: int = 8):
    """A one-register sentence over {a, b} from X, U, freeze and Booleans."""
    def go(budget, under):
        opts = ["atom", "top", "bot"]
        if budget >= 2:
            opts += ["not", "next", "freeze"]
            if under:
                opts.append("reg")
        if budget >= 3:
            opts += ["and", "or", "until"]
        k = rng.choice(opts)
        if k == "atom":
            return ltl.Atom(rng.choice("ab")), 1
        if k in ("top", "bot", "reg"):
            return {"top": ltl.TOP, "bot": ltl.BOT, "reg": ltl.Reg(1)}[k], 1
        if k in ("not", "next", "freeze"):
            f, n = go(budget - 1, under or k == "freeze")
            node = ltl.Freeze(1, f) if k == "freeze" else {"not": ltl.Not, "next": ltl.Next}[k](f)
            return node, n + 1
        left, nl = go((budget - 1) // 2, under)
        right, nr = go(budget - 1 - nl, under)
        return {"and": ltl.And, "or": ltl.Or, "until": ltl.Until}[k](left, right), nl + nr + 1

    return go(size, False)[0]


def random_nra(rng, lib):
    """A one-way nondeterministic automaton: 1-3 registers, 4-12 locations.
    In-place steps go forward in location order; moves may go anywhere, so
    loops (some of them of even rank) arise."""
    ra = lib.ra
    regs = rng.randint(1, 3)
    n = rng.randint(4, 12)
    locs = [f"q{i}" for i in range(n)] + ["acc", "rej"]
    delta = {"acc": ra.TTop(), "rej": ra.TBottom()}
    for k, q in enumerate(locs[:n]):
        near = rng.choice(locs[k + 1:k + 4])
        far = rng.choice(locs[k + 1:])
        kind = rng.choice(["test", "test", "store", "or", "move", "move"])
        if kind == "test":
            guard = rng.choice([ra.BLetter("a"), ra.BLetter("b"), ra.BEnd(),
                                ra.BUp(rng.randint(1, regs)), ra.BUp(rng.randint(1, regs))])
            delta[q] = ra.TTest(guard, near, far)
        elif kind == "store":
            delta[q] = ra.TStore(rng.randint(1, regs), near)
        elif kind == "or":
            delta[q] = ra.TOr(near, far)
        else:
            target = rng.choice(locs[:n]) if rng.random() < 0.8 else near
            delta[q] = ra.TMove(True, rng.random() < 0.3, target)
    even = {q for q in locs[:n] if rng.random() < 0.5}
    rank, height = ra.assign_annotations(locs, delta, even)
    return ra.RegisterAutomaton(lib.words.alphabet("a", "b"), tuple(locs), "q0", regs,
                                delta, rank, height)


def random_ca(rng, lib):
    """An incrementing machine over {a, b}: 3-5 locations, 1-3 counters,
    4-9 transitions; silent transitions never enter accepting locations."""
    locs = [f"q{i}" for i in range(rng.randint(3, 5))]
    counters = rng.randint(1, 3)
    trans = tuple(
        (rng.choice(locs), rng.choice(["a", "b", None]), rng.choice(["inc", "dec", "ifz"]),
         rng.randint(1, counters), rng.choice(locs))
        for _ in range(rng.randint(4, 9)))
    accepting = {q for q in locs if rng.random() < 0.4} - {t[4] for t in trans if t[1] is None}
    return lib.ca.CounterAutomaton(lib.words.Alphabet(("a", "b")), tuple(locs), "q0",
                                   counters, trans, frozenset(accepting))


def may_loop(c) -> bool:
    """Does the control graph allow a Büchi run at all: an accepting location
    reachable from the initial one, on a cycle that reads a letter?"""
    succ: dict = {}
    for t in c.transitions:
        succ.setdefault(t[0], []).append(t[4])

    def reach(q):
        seen, todo = {q}, [q]
        while todo:
            for q2 in succ.get(todo.pop(), ()):
                if q2 not in seen:
                    seen.add(q2)
                    todo.append(q2)
        return seen

    return any(t[1] is not None and t[0] in reach(q) and q in reach(t[4])
               for q in c.accepting & reach(c.initial) for t in c.transitions)


def machine(lib, transitions, accepting, counters=1, letters=("a", "b")):
    locs = ["q0"]
    for t in transitions:
        locs += [q for q in (t[0], t[4]) if q not in locs]
    return lib.ca.CounterAutomaton(lib.words.Alphabet(letters), tuple(locs), "q0", counters,
                                   tuple(transitions), frozenset(accepting))


# --- membership -------------------------------------------------------------------------

class Membership:
    """One query: one data word through the whole battery."""

    name = "membership"
    SENTENCES_PER_QUERY = 2
    tail_percentile = 95.0  # p99 of these alike queries mostly catches host hiccups
    trace_rounds_per_second = 1.0

    def __init__(self, lib, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.lib = lib
        ab = lib.words.alphabet("a", "b")
        self.phi = lib.ltl.parse_ltl(corpus_text("example22.ltl"), ab)
        self.phi_fo = lib.fo.parse_fo(corpus_text("example23.fo"))
        matching = lib.corpus.matching_ra()
        self.automata = (lib.ltl2ra.ltl_to_ara(self.phi, ab), matching, lib.ra.dual(matching))
        # random sentences of one size class (6-9 automaton locations), so
        # every query carries a like share of random work whatever the seed
        self.randoms, self.random_automata = [], []
        while len(self.randoms) < (8 if tiny else 256):
            f = random_xu_sentence(rng, lib.ltl)
            a = lib.ltl2ra.ltl_to_ara(f, ab)
            if 6 <= len(a.locations) <= 9:
                self.randoms.append(f)
                self.random_automata.append(a)
        self.words = list(lib.words.enumerate_data_words(ab, 3 if tiny else 5))
        rng.shuffle(self.words)
        self.round_size = 8 if tiny else 64

    def round(self, k: int) -> list[Query]:
        return [self._query(k * self.round_size + j) for j in range(self.round_size)]

    def _query(self, g: int) -> Query:
        """The g-th query: the g-th word (cyclically) and the next
        SENTENCES_PER_QUERY random sentences of the pool."""
        lib = self.lib
        index = g % len(self.words)
        w = self.words[index]
        first = g * self.SENTENCES_PER_QUERY % len(self.randoms)
        chosen = range(first, first + self.SENTENCES_PER_QUERY)
        phi, phi_fo, automata = self.phi, self.phi_fo, self.automata
        randoms = [self.random_automata[i] for i in chosen]
        sentences = [self.randoms[i] for i in chosen]

        def run():
            ltl, fo, ra = lib.ltl, lib.fo, lib.ra
            n = len(w)
            return (tuple(ltl.eval_ltl(w, i, {}, phi) for i in range(n)),
                    tuple(fo.eval_fo(w, {0: i}, phi_fo) for i in range(n)),
                    tuple(ra.accepts(a, w) for a in automata),
                    tuple(ra.accepts(a, w) for a in randoms))

        def check(out):
            by_ltl, by_fo, (by_phi, by_matching, by_dual), by_random = out
            want = tuple(oracles.running_property(w, i) for i in range(len(w)))
            wrong = [what for what, bad in (
                ("eval_ltl", by_ltl != want),
                ("eval_fo", by_fo != want),
                ("accepts(ltl_to_ara(phi))", by_phi != want[0]),
                ("accepts(matching_ra)", by_matching != want[0]),
                ("accepts(dual(matching_ra))", by_dual == want[0]),
            ) if bad]
            for f, got in zip(sentences, by_random):
                if got != lib.ltl.eval_ltl(w, 0, {}, f):
                    wrong.append(f"accepts(ltl_to_ara({lib.ltl.format_ltl(f)}))")
            return Outcome(True, f"{lib.words.format_data_word(w)}: wrong {', '.join(wrong)}"
                           if wrong else None)

        return Query(("word", index, first), run, check, _same)


# --- emptiness ------------------------------------------------------------------------------

class Emptiness:
    """One query: one complete emptiness decision by a millisecond decider."""

    name = "emptiness"
    COMPILED_COPIES = 5
    tail_percentile = 99.9
    trace_rounds_per_second = 0.4

    def __init__(self, lib, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.lib = lib
        self.sigma = lib.words.alphabet("a", "b")
        self.short_words = letter_words("ab", 4)
        n = 10 if tiny else 800
        queries = []
        for k in range(n):
            a = random_nra(rng, lib)
            truth: list = []  # the oracle's (finite, infinite), computed on first check
            queries.append(self._nra(k, a, truth, infinite=False))
            queries.append(self._nra(k, a, truth, infinite=True))
        queries += [self._random_ca(k, random_ca(rng, lib)) for k in range(n)]
        for case in structured_cases():
            c = lib.ra2ca.build_ca_finite(compile_case(lib, case, self.sigma))
            # five times a round: the exhaustive antichain search on the
            # empty 994-location machine is then the p99.9 tail
            queries += [self._structured(case, c)] * self.COMPILED_COPIES
        rng.shuffle(queries)
        self.queries = queries

    def round(self, k: int) -> list[Query]:
        return self.queries

    def _nra(self, k, a, truth, infinite):
        lib = self.lib
        decide = "nonempty_infinite" if infinite else "nonempty_finite"

        def run():
            return getattr(lib.nra, decide)(a)

        def check(out):
            v = read_verdict(out)
            if not truth:
                truth.extend(oracles.nra_nonempty(a))
            want = NONEMPTY if truth[infinite] else EMPTY
            if v.kind != want:
                return Outcome(True, f"nra.{decide} says {v.kind} on random automaton {k}")
            if v.certificate is not None and not lib.ra.accepts(a, v.certificate):
                return Outcome(True, f"witness of random automaton {k} does not replay")
            return Outcome(True)

        return Query((decide, k), run, check)

    def _finite_verdict_error(self, c, v: Verdict) -> Optional[str]:
        """Criterion 8's check: a witness replays, and brute force over the
        words up to length 4 agrees with the verdict on that range."""
        accepts_word = self.lib.ca.accepts_word
        short = [w for w in self.short_words if accepts_word(c, w).kind == NONEMPTY]
        if v.kind == EMPTY and short:
            return f"empty, yet accepts {''.join(short[0])}"
        if v.kind == NONEMPTY:
            if accepts_word(c, v.certificate).kind != NONEMPTY:
                return f"witness {v.certificate} does not replay"
            if not short and len(v.certificate) <= 4:
                return f"witness {v.certificate} missed by brute force"
        return None

    def _random_ca(self, k, c):
        lib = self.lib

        def run():
            return lib.ca.nonempty_finite_incrementing(c)

        def check(out):
            v = read_verdict(out)
            err = self._finite_verdict_error(c, v)
            return Outcome(v.decided, err and f"random machine {k}: {err}")

        return Query(("ca", k), run, check)

    def _structured(self, case, c):
        lib = self.lib

        def run():
            return lib.ca.nonempty_finite_incrementing(c)

        def check(out):
            v = read_verdict(out)
            err = self._finite_verdict_error(c, v)
            if v.decided and v.kind != case.finite:
                err = f"{v.kind}, but the sentence is {case.finite} on finite words"
            return Outcome(v.decided, err and f"build_ca_finite({case.name}): {err}")

        return Query(("structured", case.name), run, check)


# --- buchi ------------------------------------------------------------------------------------

class Buchi:
    """One query: one ``ca.nonempty_infinite_incrementing`` call at a fixed
    budget.  Each round holds the fixed machines and a fresh slice of the
    random ones."""

    name = "buchi"
    tail_percentile = 95.0  # near p99 sits the pump machine, once a round
    trace_rounds_per_second = 0.3
    BUDGET = 1000

    def __init__(self, lib, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.lib = lib
        sigma = lib.words.alphabet("a", "b")
        one_letter = machine(lib, [("q0", "s", "inc", 1, "q1")], {"q1"}, 2, ("s",))
        fixed = [  # criterion 8's machines, the pump machine, the sentences
            ("ca_inf", lib.corpus.ca_inf(), NONEMPTY),
            ("count-no-accept", machine(lib, [("q0", "a", "inc", 1, "q0")], set()), EMPTY),
            ("no-accepting-cycle", machine(lib, [("q0", "a", "inc", 1, "q1")], {"q1"}), EMPTY),
            ("zero-test-cycle", machine(lib, [("q0", "a", "inc", 1, "q1"),
                                              ("q1", "b", "ifz", 1, "q0")], {"q0"}), EMPTY),
            ("dead-end", machine(lib, [("q0", "a", "dec", 1, "q1"),
                                       ("q1", "b", "inc", 1, "q2")], {"q2"}), EMPTY),
            ("fig4", lib.reductions.minsky_to_incrementing_fig4(one_letter), EMPTY),
            ("pump", machine(lib, [("q0", "a", "inc", 1, "q0")], {"q0"}), NONEMPTY),
        ]
        for case in structured_cases():
            c = lib.ra2ca.build_ca_infinite(compile_case(lib, case, sigma))
            fixed.append((case.name, c, case.infinite))
        self.fixed = [self._query(("fixed", name), c, want) for name, c, want in fixed]
        self.per_round = 5 if tiny else 100
        self.pool = []
        while len(self.pool) < self.per_round * (4 if tiny else 40):
            c = random_ca(rng, lib)
            if may_loop(c):  # else it is empty at a glance, in microseconds
                self.pool.append(c)
        self.order = list(range(len(self.fixed) + self.per_round))
        rng.shuffle(self.order)

    def round(self, k: int) -> list[Query]:
        start = k * self.per_round
        randoms = [self._query(("random", i), self.pool[i], None)
                   for i in (j % len(self.pool) for j in range(start, start + self.per_round))]
        queries = self.fixed + randoms
        return [queries[i] for i in self.order]

    def _query(self, key, c, want):
        lib, budget = self.lib, self.BUDGET

        def run():
            return lib.ca.nonempty_infinite_incrementing(c, budget)

        def check(out):
            v = read_verdict(out)
            err = None
            if v.kind == NONEMPTY:
                err = oracles.replay_lasso(c, v.certificate)
            elif v.kind == EMPTY and oracles.ca_accepting_cycle(c):
                err = "empty, yet an accepting cycle exists"
            if err is None and v.decided and want is not None and v.kind != want:
                err = f"{v.kind}, but the machine is {want}"
            return Outcome(v.decided, err and f"{key}: {err}")

        return Query(key, run, check)


# --- circle ----------------------------------------------------------------------------------

LETTER_NAMES = "abcdeghkmnpqrstvwxyz"


class Circle:
    """One query: one sentence through the paper's loop, the steps of
    ``datawords circle`` plus criterion 7's language check.  The back-
    translated sentence is not fed to ``nnf`` or ``ltl_to_ara``: both recurse
    once per nesting level and fail on it."""

    name = "circle"
    tail_percentile = 75.0
    trace_rounds_per_second = 0.25
    SAT_LEN = 4

    def __init__(self, lib, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.lib = lib
        x, y = rng.sample(LETTER_NAMES, 2)
        self.sigma = lib.words.Alphabet((x, y))
        self.partitions = {n: oracles.partitions(n) for n in range(1, 7)}
        queries = []
        for case in structured_cases():
            text = re.sub(r"\b[ab]\b", lambda m: x if m.group() == "a" else y, case.text)
            horizon = 2 if tiny else case.horizon
            queries.append(self._query(case._replace(text=text, horizon=horizon)))
        if tiny:
            queries = [q for q in queries if q.key[1] in ("phi-Fa-Gnotb", "a-then-no-b")]
        rng.shuffle(queries)
        self.queries = queries

    def round(self, k: int) -> list[Query]:
        return self.queries

    def _has_model(self, phi, letters) -> bool:
        lib = self.lib
        return any(lib.ltl.eval_ltl(lib.words.make_data_word(letters, blocks, self.sigma), 0, {}, phi)
                   for blocks in self.partitions[len(letters)])

    def _query(self, case: Case) -> Query:
        lib, sigma, text = self.lib, self.sigma, case.text
        words = letter_words(sigma.letters, case.horizon)

        def run():
            ltl, ra2ca, ca = lib.ltl, lib.ra2ca, lib.ca
            phi = ltl.parse_ltl(text, sigma)
            found = ltl.sat_bounded(phi, sigma, self.SAT_LEN)
            a = lib.ltl2ra.ltl_to_ara(phi, sigma)
            fin = ra2ca.build_ca_finite(a)
            inf = ra2ca.build_ca_infinite(a)
            verdict = ca.nonempty_finite_incrementing(fin)
            language = tuple(ca.accepts_word(fin, w) for w in words)
            back = lib.reductions.ca_to_ltl_finite(ca.rename_locations(fin))
            return phi, found, fin, inf, verdict, language, back

        def summary(out):
            _phi, found, fin, inf, verdict, language, back = out
            return (found, read_verdict(verdict), tuple(r.kind for r in language),
                    tuple((len(c.locations), len(c.transitions), c.n_counters) for c in (fin, inf)),
                    oracles.formula_shape(back, lib.ltl.Formula)[:2])

        def check(out):
            phi, found, fin, _inf, verdict, language, back = out
            v = read_verdict(verdict)
            errors = []
            if v.decided and v.kind != case.finite:
                errors.append(f"nonempty_finite_incrementing says {v.kind}, expected {case.finite}")
            if (found is not None) != (case.finite == NONEMPTY):
                errors.append(f"sat_bounded found {found}, expected {case.finite}")
            if v.kind == NONEMPTY:
                if lib.ca.accepts_word(fin, v.certificate).kind != NONEMPTY:
                    errors.append(f"witness {v.certificate} does not replay")
                elif len(v.certificate) <= 6 and not self._has_model(phi, v.certificate):
                    errors.append(f"witness {v.certificate} projects no model")
            decided = v.decided
            for w, r in zip(words, language):
                decided = decided and r.kind != UNKNOWN
                if r.kind != UNKNOWN and (r.kind == NONEMPTY) != self._has_model(phi, w):
                    errors.append(f"accepts_word({''.join(w)}) says {r.kind}")
            _nodes, _depth, atoms = oracles.formula_shape(back, lib.ltl.Formula)
            letters = set(lib.reductions.hat_alphabet(lib.ca.rename_locations(fin)).letters)
            if not atoms <= letters:
                errors.append("back-translated sentence uses letters outside the machine's")
            return Outcome(decided, f"{case.name}: {'; '.join(errors)}" if errors else None)

        return Query(("circle", case.name), run, check, summary)


WORKLOADS = {cls.name: cls for cls in (Membership, Emptiness, Buchi, Circle)}
