import itertools
import random

import pytest

from datawords.corpus import ca_fin, ca_inf, every_a_matched
from datawords.ca import (
    Antichain, CounterAutomaton, Lasso, accepts_word, format_ca, initial_state,
    leq, nonempty_finite_incrementing, nonempty_infinite_incrementing,
    nonempty_minsky_bounded, parse_ca, step_incrementing, step_minsky,
    validate_ca, verify_lasso, ca_to_dot, _witness_search,
)
from datawords.errors import PreconditionViolation
from datawords.words import Alphabet, alphabet


def tiny(transitions, accepting, n_counters=1, letters=("a", "b"), init="q0"):
    locs = []
    for t in transitions:
        for q in (t[0], t[4]):
            if q not in locs:
                locs.append(q)
    if init not in locs:
        locs.insert(0, init)
    return CounterAutomaton(Alphabet(tuple(letters)), tuple(locs), init,
                            n_counters, tuple(transitions), frozenset(accepting))


def test_validate_eps_into_accepting():
    c = tiny([("q0", None, "inc", 1, "q1")], {"q1"})
    assert any("silent" in v for v in validate_ca(c))
    assert validate_ca(ca_fin()) == []
    assert validate_ca(ca_inf()) == []


def test_step_minsky():
    c = tiny([("q0", "a", "dec", 1, "q1"), ("q0", "a", "ifz", 1, "q1"),
              ("q0", "a", "inc", 1, "q1")], set())
    zero = ("q0", (0,))
    steps = step_minsky(c, zero)
    ops = sorted(t[1][2] for t in steps)
    assert ops == ["ifz", "inc"]  # dec blocked at zero
    two = ("q0", (2,))
    steps = {t[1][2]: t[2][1] for t in step_minsky(c, two)}
    assert steps == {"dec": (1,), "inc": (3,)}


def test_step_incrementing_minimal_errors():
    c = tiny([("q0", "a", "dec", 1, "q1"), ("q0", "a", "ifz", 1, "q1")], set())
    zero = ("q0", (0,))
    steps = {t[1][2]: t[2][1] for t in step_incrementing(c, zero)}
    assert steps["dec"] == (0,)  # borrow an error, decrement back to zero
    assert steps["ifz"] == (0,)
    one = ("q0", (1,))
    steps = {t[1][2]: t[2][1] for t in step_incrementing(c, one)}
    assert "ifz" not in steps  # a true zero is required
    assert steps["dec"] == (0,)


def test_accepts_word_ca_fin():
    c = ca_fin()
    assert accepts_word(c, "ab").is_nonempty
    assert not accepts_word(c, "a").is_nonempty
    assert accepts_word(c, "b").is_nonempty
    # exhaustive agreement with the matching oracle
    for n in range(1, 6):
        for w in itertools.product("ab", repeat=n):
            got = accepts_word(c, w).is_nonempty
            assert got == every_a_matched(w), w


def test_ca_fin_minsky_agrees():
    c = ca_fin()
    for n in range(1, 5):
        for w in itertools.product("ab", repeat=n):
            inc = accepts_word(c, w, "incrementing").is_nonempty
            mis = accepts_word(c, w, "minsky").is_nonempty
            assert inc == mis == every_a_matched(w), w


def test_accepts_word_rejects_unknown_semantics():
    with pytest.raises(PreconditionViolation):
        accepts_word(ca_fin(), "ab", "incremental")


def test_minsky_runs_are_incrementing_runs():
    rng = random.Random(5)
    for _ in range(60):
        c = random_machine(rng)
        for n in range(1, 3):
            for w in itertools.product("ab", repeat=n):
                if accepts_word(c, w, "minsky", budget=4000).is_nonempty:
                    assert accepts_word(c, w, "incrementing", budget=8000).is_nonempty


def test_nonempty_finite_incrementing_ca_fin():
    v = nonempty_finite_incrementing(ca_fin())
    assert v.is_nonempty
    assert v.witness == ("b",)


def test_nonempty_finite_empty_cases():
    # the only accepting path needs a zero test after a genuine increment
    c = tiny([("q0", "a", "inc", 1, "q1"), ("q1", "b", "ifz", 1, "q2")], {"q2"})
    assert nonempty_finite_incrementing(c).is_empty
    for n in range(1, 5):
        for w in itertools.product("ab", repeat=n):
            assert not accepts_word(c, w).is_nonempty
    assert nonempty_finite_incrementing(tiny([("q0", "a", "inc", 1, "q1")], set())).is_empty


def test_nonempty_finite_agrees_with_brute_force():
    rng = random.Random(77)
    for _ in range(40):
        c = random_machine(rng)
        verdict = nonempty_finite_incrementing(c, budget=20000)
        brute = any(
            accepts_word(c, w, "incrementing", budget=4000).is_nonempty
            for n in range(1, 5) for w in itertools.product("ab", repeat=n)
        )
        if verdict.is_nonempty and len(verdict.witness) <= 4:
            assert brute
        if brute:
            assert verdict.is_nonempty


def test_nonempty_infinite_ca_inf():
    v = nonempty_infinite_incrementing(ca_inf())
    assert v.is_nonempty
    assert v.lasso is not None and verify_lasso(ca_inf(), v.lasso)


def test_nonempty_infinite_empty_cases():
    # unreachable accepting location
    c1 = tiny([("q0", "a", "inc", 1, "q0")], {"q9"})
    c1 = CounterAutomaton(c1.alphabet, c1.locations + ("q9",), "q0", 1,
                          c1.transitions, frozenset({"q9"}))
    assert nonempty_infinite_incrementing(c1).is_empty
    # accepting only via an end-of-word style dead stop: no cycle through it
    c2 = tiny([("q0", "a", "inc", 1, "q1")], {"q1"})
    assert nonempty_infinite_incrementing(c2).is_empty
    # zero test after increments blocks forever
    c3 = tiny([("q0", "a", "inc", 1, "q1"), ("q1", "b", "ifz", 1, "q0")], {"q0"})
    assert nonempty_infinite_incrementing(c3).is_empty


def test_nonempty_infinite_even_loop():
    c = tiny([("q0", "a", "ifz", 1, "q0")], {"q0"})
    v = nonempty_infinite_incrementing(c)
    assert v.is_nonempty and verify_lasso(c, v.lasso)


def test_witness_search_finds_return_to_accepting_source():
    # the only lasso goes straight back to the accepting start state
    loop = ("q0", "a", "dec", 1, "q0")
    c = tiny([loop], {"q0"})
    lasso = _witness_search(c, 1000)
    assert lasso == Lasso((), (loop,)) and verify_lasso(c, lasso)
    assert nonempty_infinite_incrementing(c).lasso == lasso


def test_nonempty_minsky_bounded():
    assert nonempty_minsky_bounded(ca_fin(), "finite").is_nonempty
    c = tiny([("q0", "a", "inc", 1, "q1"), ("q1", "a", "dec", 1, "q2"),
              ("q2", "a", "ifz", 1, "q3")], {"q3"}, n_counters=2)
    v = nonempty_minsky_bounded(c, "finite")
    assert v.is_nonempty and v.witness == ("a", "a", "a")
    none = tiny([("q0", "a", "inc", 1, "q0")], set())
    assert nonempty_minsky_bounded(none, "finite", budget=500).kind == "unknown"


def random_machine(rng, n_locs=3, n_counters=2, n_trans=4):
    locs = [f"q{i}" for i in range(n_locs)]
    trans = []
    for _ in range(n_trans):
        q, q2 = rng.choice(locs), rng.choice(locs)
        w = rng.choice(["a", "b", None])
        op = rng.choice(["inc", "dec", "ifz"])
        ctr = rng.randint(1, n_counters)
        trans.append((q, w, op, ctr, q2))
    acc = {q for q in locs if rng.random() < 0.4}
    acc -= {t[4] for t in trans if t[1] is None}
    return CounterAutomaton(Alphabet(("a", "b")), tuple(locs), "q0",
                            n_counters, tuple(trans), frozenset(acc))


def box(n_counters, cap):
    return itertools.product(range(cap + 1), repeat=n_counters)


def test_downward_simulation_property():
    """Every faulty step from a state is matched, with the same target, from
    any smaller state: minimal successors are monotone and zero tests only
    get easier downwards."""
    rng = random.Random(99)
    for _ in range(200):
        c = random_machine(rng)
        for v1 in box(2, 2):
            for v2 in box(2, 2):
                if not leq(v2, v1):
                    continue
                s1 = {(t[1], t[2]) for t in step_incrementing(c, ("q0", v1))}
                s2 = {(t[1], t[2][0]) for t in step_incrementing(c, ("q0", v2))}
                for t, (q2, u1) in s1:
                    matches = [u for (tt, qq) in s2 if tt == t for u in [qq]]
                    assert t in {x[0] for x in s2}
        # literal matching of full faulty steps on a sample
        for v1 in [(1, 0), (2, 1)]:
            for (t, (q2, u1)) in [(x[1], x[2]) for x in step_incrementing(c, ("q0", v1))]:
                for v2 in box(2, 2):
                    if leq(v2, v1):
                        succ2 = {(x[1], x[2]) for x in step_incrementing(c, ("q0", v2))}
                        # same transition enabled, and its minimal target is below
                        mins = [s for (tt, s) in succ2 if tt == t]
                        assert mins and leq(mins[0][1], u1)


def dagger_successors(c, state, cap):
    """Brute-force faulty successors within a value box: raise the source,
    take an exact step, raise the target."""
    q, v = state
    out = set()
    for vd in box(c.n_counters, cap):
        if not leq(v, vd):
            continue
        for w, t, (q2, u) in step_minsky(c, (q, vd)):
            for u2 in box(c.n_counters, cap):
                if leq(u, u2):
                    out.add((t, (q2, u2)))
    return out


def test_minimal_error_adequacy():
    """Within a bounded box, upward closure of minimal-error reachability is
    exactly faulty reachability (states reached by at least one step)."""
    rng = random.Random(13)
    cap = 3
    for _ in range(30):
        c = random_machine(rng)
        # faulty reachability inside the box
        dag = set()
        frontier = [initial_state(c)]
        seen = {initial_state(c)}
        while frontier:
            st = frontier.pop()
            for t, nxt in dagger_successors(c, st, cap):
                if nxt not in dag:
                    dag.add(nxt)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        # minimal-error reachability inside the box
        mins = set()
        frontier = [initial_state(c)]
        seen2 = {initial_state(c)}
        while frontier:
            st = frontier.pop()
            for w, t, nxt in step_incrementing(c, st):
                if max(nxt[1]) > cap:
                    continue
                if nxt not in mins:
                    mins.add(nxt)
                    if nxt not in seen2:
                        seen2.add(nxt)
                        frontier.append(nxt)
        up = {(q, v) for (q, m) in mins for v in box(c.n_counters, cap) if leq(m, v)}
        assert dag == up, c.transitions


def test_antichain():
    ac = Antichain()
    assert ac.add("q", (1, 1))
    assert not ac.add("q", (2, 1))
    assert ac.add("q", (0, 2))
    assert ac.add("q", (1, 0))
    assert len(ac) == 2  # (1,0) evicts (1,1)


def test_parse_format_round_trip():
    c = ca_fin()
    text = format_ca(c)
    back = parse_ca(text)
    assert back.transitions == c.transitions
    assert back.accepting == c.accepting
    assert "digraph" in ca_to_dot(c)
