"""The acceptance gate: one test per criterion, each printing a verdict line.

Everything is anchored to the worked three-letter example, its sentence, the
sixteen-location automaton, and the two shipped counter machines; random
suites use fixed seeds so the run is reproducible.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from datawords import fo as fo_mod
from datawords import ltl as ltl_mod
from datawords.ca import (
    CounterAutomaton, accepts_word, leq, nonempty_finite_incrementing,
    nonempty_infinite_incrementing, step_incrementing, verify_lasso,
)
from datawords.corpus import ca_fin, ca_inf, every_a_matched, matching_ra
from datawords.fo import eval_fo, fo2_to_simple_ltl, free_vars, parse_fo, simple_ltl_to_fo2
from datawords.ltl import eval_ltl, parse_ltl, sat_bounded
from datawords.ltl2ra import ltl_to_ara
from datawords.nra import nonempty_finite
from datawords.ra import (
    accepts, accepting_strategy, classify_ra, dual, product_1nra, validate,
)
from datawords.ra2ca import build_ca_finite
from datawords.reductions import (
    ca_to_ltl_finite, ca_to_ura1, hat_alphabet, minsky_to_incrementing_fig4,
)
from datawords.words import (
    Alphabet, alphabet, enumerate_data_words, make_data_word, project_string,
)

from test_ca import step_minsky
from test_reductions import projection_map

AB = alphabet("a", "b")
PHI_TEXT = "G (a -> store1 X ((G (a -> !up1)) & F (b & up1)))"
PHI_PRIME_TEXT = (
    "forall x1 ( !(x1 < x0) & Pa(x1) -> "
    "  (forall x0 (x1 < x0 & Pa(x0) -> !(x1 ~ x0)))"
    "  & (exists x0 (x1 < x0 & Pb(x0) & x1 ~ x0)) )"
)
SIGMA = make_data_word("aab", [{0, 2}, {1}])


def report(n, detail):
    print(f"[criterion {n:2}] PASS  {detail}")


def words_upto(k):
    return list(enumerate_data_words(AB, k))


def test_criterion_1_example_fidelity():
    t0 = time.monotonic()
    phi = parse_ltl(PHI_TEXT, AB)
    assert eval_ltl(SIGMA, 0, {}, phi) is False
    mra = matching_ra()
    assert accepts(mra, SIGMA) is False
    winner, strat, visited = accepting_strategy(mra, SIGMA)
    assert winner == 2
    expected = {
        (0, "q1", (None,)), (0, "q2", (None,)), (1, "q1", (None,)),
        (1, "q3", (None,)), (1, "q4", (None,)), (1, "q5", (1,)),
        (2, "q6", (1,)), (2, "q11", (1,)), (2, "q12", (1,)),
        (2, "q13", (1,)), (2, "q14", (1,)), (2, "q16", (1,)),
    }
    assert visited == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"example verdicts and the pathfinder strategy match ({elapsed:.2f}s)")


def test_criterion_2_logic_fo_equivalence():
    t0 = time.monotonic()
    phi = parse_ltl(PHI_TEXT, AB)
    phi_prime = parse_fo(PHI_PRIME_TEXT)
    corpus = words_upto(4)
    assert len(corpus) == 290
    checked = 0
    for w in corpus:
        for i in range(len(w)):
            assert eval_ltl(w, i, {}, phi) == eval_fo(w, {0: i}, phi_prime), (w, i)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, f"{checked} positions over 290 words agree ({elapsed:.2f}s)")


def _random_simple_sentence(rng, m=1, max_size=8):
    from datawords.fo import _op_block
    blocks = [0, 1, -1, m + 1, -(m + 1)]

    def go(depth, under):
        choices = ["atom", "bool"]
        if depth > 0:
            choices.append("block")
        if under:
            choices.append("reg")
        kind = rng.choice(choices)
        if kind == "atom":
            return ltl_mod.Atom(rng.choice("ab"))
        if kind == "reg":
            return ltl_mod.Reg(1)
        if kind == "block":
            return _op_block(rng.choice(blocks), m, go(depth - 1, True))
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            return ltl_mod.Not(go(depth - 1, under))
        ctor = ltl_mod.And if op == "and" else ltl_mod.Or
        return ctor(go(depth - 1, under), go(depth - 1, under))

    while True:
        f = go(3, False)
        if ltl_mod.size(f) <= max_size and ltl_mod.is_simple_in(f, m):
            return f


def _random_fo2(rng, m=1, depth=2):
    from datawords.fo import (
        Exists, FO_BOT, FO_TOP, FoAnd, FoNot, FoOr, Forall, Less, PlusEq, Pred, Same,
    )

    def atom():
        k = rng.randrange(5)
        a, b = rng.choice([(0, 1), (1, 0), (0, 0), (1, 1)])
        if k == 0:
            return Pred(rng.choice("ab"), rng.choice([0, 1]))
        if k == 1:
            return Same(a, b)
        if k == 2:
            return Less(a, b)
        if k == 3:
            return PlusEq(a, b, rng.randint(0, m))
        return rng.choice([FO_TOP, FO_BOT])

    def go(d):
        if d == 0:
            return atom()
        k = rng.randrange(6)
        if k == 0:
            return FoNot(go(d - 1))
        if k == 1:
            return FoAnd(go(d - 1), go(d - 1))
        if k == 2:
            return FoOr(go(d - 1), go(d - 1))
        if k == 3:
            return Exists(rng.choice([0, 1]), go(d - 1))
        if k == 4:
            return Forall(rng.choice([0, 1]), go(d - 1))
        return atom()

    f = go(depth)
    for v in sorted(free_vars(f) - {0}):
        f = Exists(v, f)
    return f


def test_criterion_3_round_trips():
    rng = random.Random(32100)
    corpus = words_upto(3)
    n_ltl = 0
    for _ in range(100):
        f = _random_simple_sentence(rng)
        j = rng.choice([0, 1])
        g = simple_ltl_to_fo2(f, j, m=1)
        for w in corpus:
            for i in range(len(w)):
                assert eval_fo(w, {j: i}, g) == eval_ltl(w, i, {}, f), (f, j, w, i)
        n_ltl += 1
    n_fo = 0
    for _ in range(50):
        f = _random_fo2(rng)
        g = fo2_to_simple_ltl(f, 0)
        for w in corpus:
            for i in range(len(w)):
                assert eval_ltl(w, i, {}, g) == eval_fo(w, {0: i}, f), (f, w, i)
        n_fo += 1
    report(3, f"{n_ltl} temporal and {n_fo} first-order round trips agree")


def _random_xu_sentence(rng, size=8):
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
            return ltl_mod.Atom(rng.choice("ab")), 1
        if k == "top":
            return ltl_mod.TOP, 1
        if k == "bot":
            return ltl_mod.BOT, 1
        if k == "reg":
            return ltl_mod.Reg(1), 1
        if k == "not":
            f, n = go(budget - 1, under)
            return ltl_mod.Not(f), n + 1
        if k == "next":
            f, n = go(budget - 1, under)
            return ltl_mod.Next(f), n + 1
        if k == "freeze":
            f, n = go(budget - 1, True)
            return ltl_mod.Freeze(1, f), n + 1
        l, nl = go((budget - 1) // 2, under)
        r, nr = go(budget - 1 - nl, under)
        ctor = {"and": ltl_mod.And, "or": ltl_mod.Or, "until": ltl_mod.Until}[k]
        return ctor(l, r), nl + nr + 1

    return go(size, False)[0]


def test_criterion_4_translation_preserves_languages():
    phi = parse_ltl(PHI_TEXT, AB)
    corpus = words_upto(4)
    a_phi = ltl_to_ara(phi, AB)
    assert validate(a_phi) == []
    for w in corpus:
        assert accepts(a_phi, w) == eval_ltl(w, 0, {}, phi), w
    rng = random.Random(4004)
    count = 0
    for _ in range(100):
        f = _random_xu_sentence(rng)
        a = ltl_to_ara(f, AB)
        assert validate(a) == []
        assert classify_ra(a).one_way
        for w in corpus:
            assert accepts(a, w) == eval_ltl(w, 0, {}, f), (f, w)
        count += 1
    report(4, f"the example and {count} random X,U sentences agree on 290 words")


def _first_letter_ra(letter):
    from datawords.ra import (
        BLetter, RegisterAutomaton, TBottom, TTest, TTop, assign_annotations,
    )
    delta = {"s": TTest(BLetter(letter), "acc", "rej"),
             "acc": TTop(), "rej": TBottom()}
    rank, height = assign_annotations(list(delta), delta)
    return RegisterAutomaton(AB, tuple(delta), "s", 0, delta, rank, height)


def _repeat_class_ra():
    from datawords.ra import (
        BUp, RegisterAutomaton, TBottom, TMove, TOr, TStore, TTest, TTop,
        assign_annotations,
    )
    delta = {
        "s": TOr("here", "skip"),
        "here": TStore(1, "stx"),
        "stx": TMove(True, False, "hunt"),
        "skip": TMove(True, False, "s"),
        "hunt": TOr("test", "move"),
        "test": TTest(BUp(1), "acc", "rej"),
        "move": TMove(True, False, "hunt"),
        "acc": TTop(),
        "rej": TBottom(),
    }
    rank, height = assign_annotations(list(delta), delta)
    return RegisterAutomaton(AB, tuple(delta), "s", 1, delta, rank, height)


def test_criterion_5_closure_laws():
    corpus = words_upto(3)
    mra = matching_ra()
    d = dual(mra)
    for w in corpus:
        assert accepts(d, w) == (not accepts(mra, w)), w
    a1, a2 = _first_letter_ra("a"), _repeat_class_ra()
    d1 = dual(a1)
    for w in corpus:
        assert accepts(d1, w) == (not accepts(a1, w)), w
    p = product_1nra(a1, a2)
    for w in corpus:
        assert accepts(p, w) == (accepts(a1, w) and accepts(a2, w)), w
    report(5, f"dual flips and the product conjoins on all {len(corpus)} words")


def _random_1nra(rng, n_locs=4):
    from datawords.ra import (
        BEnd, BLetter, BUp, RegisterAutomaton, TBottom, TMove, TOr, TStore,
        TTest, TTop, assign_annotations,
    )
    locs = [f"q{i}" for i in range(n_locs)] + ["acc", "rej"]
    delta = {"acc": TTop(), "rej": TBottom()}
    for k, q in enumerate(locs[:n_locs]):
        lower = locs[k + 1:]
        t1, t2 = rng.choice(lower), rng.choice(lower)
        kind = rng.choice(["test", "store", "or", "move", "move"])
        if kind == "test":
            guard = rng.choice([BLetter("a"), BLetter("b"), BEnd(), BUp(1)])
            delta[q] = TTest(guard, t1, t2)
        elif kind == "store":
            delta[q] = TStore(1, t1)
        elif kind == "or":
            delta[q] = TOr(t1, t2)
        else:
            delta[q] = TMove(True, rng.random() < 0.3, t1)
    rank, height = assign_annotations(locs, delta)
    return RegisterAutomaton(AB, tuple(locs), "q0", 1, delta, rank, height)


def test_criterion_6_nra_emptiness():
    corpus5 = list(enumerate_data_words(AB, 5))
    suite = []
    from datawords.ra import RegisterAutomaton, TTop
    suite.append(RegisterAutomaton(AB, ("t",), "t", 0, {"t": TTop()},
                                   {"t": 0}, {"t": 0}))
    suite.append(_repeat_class_ra())
    rng = random.Random(606)
    while len(suite) < 22:
        a = _random_1nra(rng)
        v = nonempty_finite(a)
        if v.is_nonempty and len(v.witness) > 5:
            continue  # keep the curated witnesses short
        suite.append(a)
    for a in suite:
        v = nonempty_finite(a)
        brute = any(accepts(a, u) for u in corpus5)
        assert v.is_nonempty == brute, a.delta
        if v.is_nonempty:
            assert accepts(a, v.witness)  # re-verification of the witness
    report(6, f"{len(suite)} automata agree with brute force; witnesses replay")


def test_criterion_7_the_circle():
    t0 = time.monotonic()
    phi = parse_ltl(PHI_TEXT, AB)
    ca = build_ca_finite(ltl_to_ara(phi, AB))
    machine_lang = set()
    for n in range(1, 7):
        for w in itertools.product("ab", repeat=n):
            if accepts_word(ca, w, budget=500_000).is_nonempty:
                machine_lang.add(w)
    characterized = {w for n in range(1, 7) for w in itertools.product("ab", repeat=n)
                     if every_a_matched(w)}
    by_enumeration = set()
    for w in enumerate_data_words(AB, 6):
        if w.letters not in by_enumeration and eval_ltl(w, 0, {}, phi):
            by_enumeration.add(w.letters)
    assert machine_lang == characterized == by_enumeration
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(7, f"three descriptions of the length-<=6 language coincide "
              f"({len(machine_lang)} words, {elapsed:.1f}s)")


def _tiny_ca(transitions, accepting, n_counters=1, letters=("a", "b"), init="q0"):
    locs = []
    for t in transitions:
        for q in (t[0], t[4]):
            if q not in locs:
                locs.append(q)
    if init not in locs:
        locs.insert(0, init)
    return CounterAutomaton(Alphabet(tuple(letters)), tuple(locs), init,
                            n_counters, tuple(transitions), frozenset(accepting))


def _random_ca(rng, n_locs=3, n_counters=2, n_trans=4):
    locs = [f"q{i}" for i in range(n_locs)]
    trans = []
    for _ in range(n_trans):
        trans.append((rng.choice(locs), rng.choice(["a", "b", None]),
                      rng.choice(["inc", "dec", "ifz"]),
                      rng.randint(1, n_counters), rng.choice(locs)))
    acc = {q for q in locs if rng.random() < 0.4}
    acc -= {t[4] for t in trans if t[1] is None}
    return CounterAutomaton(Alphabet(("a", "b")), tuple(locs), "q0",
                            n_counters, tuple(trans), frozenset(acc))


def test_criterion_8_incrementing_deciders():
    rng = random.Random(808)
    machines = [ca_fin()] + [_random_ca(rng) for _ in range(21)]
    for c in machines:
        verdict = nonempty_finite_incrementing(c, budget=30_000)
        assert verdict.kind in ("nonempty", "empty")
        brute = any(
            accepts_word(c, w, "incrementing", budget=5_000).is_nonempty
            for n in range(1, 5) for w in itertools.product("ab", repeat=n)
        )
        if brute:
            assert verdict.is_nonempty
        elif verdict.is_nonempty:
            assert len(verdict.witness) > 4  # beyond the brute-force horizon
    inf = nonempty_infinite_incrementing(ca_inf(), budget=50_000)
    assert inf.is_nonempty and verify_lasso(ca_inf(), inf.lasso)

    accepting_minsky = _tiny_ca([("q0", "s", "inc", 1, "q1")], {"q1"},
                                n_counters=2, letters=("s",))
    empties = [
        _tiny_ca([("q0", "a", "inc", 1, "q0")], set()),
        _tiny_ca([("q0", "a", "inc", 1, "q1")], {"q1"}),  # no accepting cycle
        _tiny_ca([("q0", "a", "inc", 1, "q1"), ("q1", "b", "ifz", 1, "q0")], {"q0"}),
        _tiny_ca([("q0", "a", "dec", 1, "q1"), ("q1", "b", "inc", 1, "q2")], {"q2"}),
        minsky_to_incrementing_fig4(accepting_minsky),
    ]
    for c in empties:
        v = nonempty_infinite_incrementing(c, budget=60_000)
        assert v.is_empty, (c.transitions, v)
    report(8, f"{len(machines)} finite-word machines agree; the infinite "
              f"machine pumps and {len(empties)} crafted machines refute")


def test_criterion_9_reduction_exactness():
    c = _tiny_ca([("q0", "a", "inc", 1, "q1"), ("q1", "b", "dec", 1, "q2")], {"q2"})
    phi = ca_to_ltl_finite(c)
    h = projection_map(c)
    models = set()
    ura = ca_to_ura1(c)
    corpus = list(enumerate_data_words(hat_alphabet(c), 3))
    for w in corpus:
        value = eval_ltl(w, 0, {}, phi)
        assert accepts(ura, w) == value, w
        if value:
            models.add(project_string(w, h))
    language = {w for n in range(1, 4) for w in itertools.product("ab", repeat=n)
                if accepts_word(c, w).is_nonempty}
    assert models == language == {("a", "b")}
    report(9, f"sentence, automaton and machine agree on {len(corpus)} encodings")


def _box(n, cap):
    return itertools.product(range(cap + 1), repeat=n)


def _dagger_successors_oracle(c, state, cap, box):
    """Faulty successors inside a value box, straight from the definition:
    raise the source, take an exact step, raise the target.  Dominated step
    results are dropped eagerly; their upward closures add nothing."""
    q, v = state
    bases: dict = {}
    for vd in box:
        if not leq(v, vd):
            continue
        for w, t, (q2, u) in step_minsky(c, (q, vd)):
            mins = bases.setdefault((t, q2), [])
            if not any(leq(m, u) for m in mins):
                mins[:] = [m for m in mins if not leq(u, m)] + [u]
    out = set()
    for (t, q2), mins in bases.items():
        for u2 in box:
            if any(leq(m, u2) for m in mins):
                out.add((t, (q2, u2)))
    return out


def test_criterion_10_semantics_sanity():
    rng = random.Random(1010)
    cap = 3
    box = list(_box(2, cap))
    n_dsim = n_adequacy = 0
    for round_no in range(1000):
        c = _random_ca(rng)
        # downward simulation: smaller states take the same steps
        q = rng.choice(c.locations)
        v1 = rng.choice(box)
        v2 = tuple(rng.randint(0, x) for x in v1)
        s1 = {(t[1], t[2]) for t in step_incrementing(c, (q, v1))}
        s2 = {t[1]: t[2] for t in step_incrementing(c, (q, v2))}
        for t, (q2, u1) in s1:
            assert t in s2
            assert s2[t][0] == q2 and leq(s2[t][1], u1)
        n_dsim += 1
        # minimal-error reachability, closed upwards, is faulty
        # reachability (both restricted to the box, one-plus steps)
        dag = set()
        frontier = [("q0", (0,) * 2)]
        seen = {frontier[0]}
        while frontier:
            st = frontier.pop()
            for t, nxt in _dagger_successors_oracle(c, st, cap, box):
                if nxt not in dag:
                    dag.add(nxt)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        mins = set()
        frontier = [("q0", (0,) * 2)]
        seen = {frontier[0]}
        while frontier:
            st = frontier.pop()
            for w, t, nxt in step_incrementing(c, st):
                if max(nxt[1]) > cap:
                    continue
                if nxt not in mins:
                    mins.add(nxt)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        up = {(q2, v) for (q2, m) in mins for v in box if leq(m, v)}
        assert dag == up, c.transitions
        n_adequacy += 1
    report(10, f"downward simulation on {n_dsim} machines, adequacy on "
               f"{n_adequacy} (values <= {cap})")
