import dataclasses
import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from datawords.corpus import ca_fin, ca_inf, every_a_matched
from datawords.ca import (
    CounterAutomaton, Lasso, accepts_word, format_ca, initial_state,
    leq, nonempty_finite_incrementing, nonempty_infinite_incrementing,
    nonempty_minsky_bounded, parse_ca, step_incrementing,
    Verdict, rename_locations, validate_ca, verify_lasso, ca_to_dot, _witness_search,
)
from datawords.errors import PreconditionViolation
from datawords.words import Alphabet, alphabet

# the exact (Minsky) successors, which the tests replay exact runs with
step_minsky = partial(step_incrementing, exact=True)


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


def test_fields_are_read_only():
    # outgoing() and the search guide are derived from the fields once
    c = tiny([("q0", "a", "inc", 1, "q1")], set())
    assert accepts_word(c, ("a",)).is_empty
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.accepting = frozenset({"q1"})
    assert c.accepting == frozenset()
    assert accepts_word(tiny([("q0", "a", "inc", 1, "q1")], {"q1"}), ("a",)).is_nonempty


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


@pytest.mark.parametrize("budget", [0, -3, 1.5, 1000.5])
@pytest.mark.parametrize("decide", [
    lambda budget: accepts_word(ca_fin(), "ab", "incrementing", budget),
    lambda budget: accepts_word(ca_fin(), "ab", "minsky", budget),
    lambda budget: nonempty_finite_incrementing(ca_fin(), budget),
    lambda budget: nonempty_infinite_incrementing(ca_inf(), budget),
    lambda budget: nonempty_minsky_bounded(ca_fin(), "finite", budget),
    lambda budget: nonempty_minsky_bounded(ca_inf(), "infinite", budget),
], ids=["accepts-incrementing", "accepts-minsky", "finite", "infinite", "minsky-finite",
        "minsky-infinite"])
def test_deciders_refuse_a_budget_that_is_not_a_positive_int(decide, budget):
    """No decider answers on a budget it cannot spend.  The budget is
    refused on entry, before any stage of the staged infinite deciders,
    whose first stages would answer these machines."""
    with pytest.raises(PreconditionViolation, match=f"budget {budget!r} is not an int of"):
        decide(budget)


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


def test_verify_lasso_rejects_a_step_that_does_not_fire():
    inc, test = ("q0", "a", "inc", 1, "q1"), ("q1", "a", "ifz", 1, "q1")
    c = tiny([inc, test, ("q1", "b", "dec", 1, "q1")], {"q1"})
    assert verify_lasso(c, Lasso((inc,), (("q1", "b", "dec", 1, "q1"), test)))
    # the counter is 1 when the zero test comes, and the cycle's first step
    # leaves from a location the stem does not end at
    assert not verify_lasso(c, Lasso((inc,), (test,)))
    assert not verify_lasso(c, Lasso((), (test,)))


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
    # exhausting the exact state space is a definite no
    none = tiny([("q0", "a", "inc", 1, "q0")], set())
    assert nonempty_minsky_bounded(none, "finite", budget=500) == \
        Verdict("empty", reason="exact state space exhausted")
    c = tiny([("q0", "a", "inc", 1, "q1"), ("q1", "b", "dec", 2, "q2")], {"q2"}, n_counters=2)
    assert nonempty_minsky_bounded(c, "finite").is_empty
    # counter 2 blocks the way to q1, and counter 1 pumps without end
    blocked = tiny([("q0", "a", "inc", 1, "q0"), ("q0", "b", "dec", 2, "q1")], {"q1"},
                   n_counters=2)
    assert nonempty_minsky_bounded(blocked, "finite", budget=500) == \
        Verdict("unknown", reason="budget of 500 states spent")
    assert nonempty_finite_incrementing(blocked).witness == ("b",)
    with pytest.raises(PreconditionViolation):
        nonempty_minsky_bounded(none, "omega")


def replay_exact(c, path, state):
    """The states an exact run visits from ``state`` along ``path``."""
    out = []
    for t in path:
        (state,) = [nxt for _w, t2, nxt in step_minsky(c, state) if t2 == t]
        out.append(state)
    return out


@pytest.mark.parametrize("machine", [ca_fin, ca_inf])
def test_minsky_infinite_lasso_replays_exactly(machine):
    c = machine()
    v = nonempty_minsky_bounded(c, "infinite")
    assert v.is_nonempty
    anchor = (replay_exact(c, v.lasso.stem, initial_state(c)) or [initial_state(c)])[-1]
    cycle = replay_exact(c, v.lasso.cycle, anchor)
    assert cycle[-1] == anchor
    assert any(t[1] is not None for t in v.lasso.cycle)
    assert any(q in c.accepting for q, _ in cycle)


def test_minsky_infinite_exhausted_graph_is_empty():
    # the exact graph of a counter that is never incremented fits whole:
    # q1 accepts but lies on no cycle, and the cycle at q0 reads no letter
    c = tiny([("q0", None, "ifz", 1, "q0"), ("q0", "a", "ifz", 1, "q1"),
              ("q1", "a", "dec", 1, "q0")], {"q1"})
    for budget in (5, 16, 1000):
        assert nonempty_minsky_bounded(c, "infinite", budget) == \
            Verdict("empty", reason="exact state space exhausted")
    # a counter pumped without end never fits, whatever the budget
    pump = tiny([("q0", "a", "inc", 1, "q0")], {"q0"})
    assert nonempty_minsky_bounded(pump, "infinite", 500) == \
        Verdict("unknown", reason="budget of 500 states spent")


@pytest.mark.parametrize("budget", [250, 2000])
def test_minsky_infinite_budget_bounds_the_call(monkeypatch, budget):
    # the explorer looks up the transitions of each state it expands once
    pump = tiny([("q0", "a", "inc", 1, "q0")], {"q0"})
    calls = []
    outgoing = CounterAutomaton.outgoing

    def counted(c, q):
        calls.append(q)
        return outgoing(c, q)

    monkeypatch.setattr(CounterAutomaton, "outgoing", counted)
    assert nonempty_minsky_bounded(pump, "infinite", budget).kind == "unknown"
    assert 0 < len(calls) <= 3 * budget


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


def test_parse_format_round_trip():
    c = ca_fin()
    text = format_ca(c)
    back = parse_ca(text)
    assert back.transitions == c.transitions
    assert back.accepting == c.accepting
    assert "digraph" in ca_to_dot(c)


@st.composite
def any_machine(draw):
    """A machine with named or integer locations (compiled machines have
    integers), letters of one or several characters, and any transitions."""
    n = draw(st.integers(1, 5))
    locs = tuple(range(n)) if draw(st.booleans()) else tuple(f"s{k}x" for k in range(n))
    letters = draw(st.sampled_from([("a", "b"), ("up", "down", "x")]))
    counters = draw(st.integers(1, 3))
    loc = st.sampled_from(locs)
    trans = draw(st.lists(
        st.tuples(loc, st.sampled_from(letters + (None,)),
                  st.sampled_from(["inc", "dec", "ifz"]), st.integers(1, counters), loc),
        max_size=8))
    return CounterAutomaton(Alphabet(letters), locs, draw(loc), counters, tuple(trans),
                            frozenset(draw(st.sets(loc))))


@settings(max_examples=200, deadline=None)
@given(any_machine())
def test_format_parse_round_trip(c):
    """The .ca text keeps everything but the location list: names are kept,
    non-string locations are named q0.. by position, and parse_ca lists the
    locations the text mentions in order of first mention."""
    named = c if isinstance(c.initial, str) else rename_locations(c)
    back = parse_ca(format_ca(c))
    assert back.alphabet == c.alphabet and back.n_counters == c.n_counters
    assert back.initial == named.initial
    assert back.accepting == named.accepting
    assert back.transitions == named.transitions
    mentioned = {named.initial} | set(named.accepting) | \
        {q for t in named.transitions for q in (t[0], t[4])}
    assert set(back.locations) == mentioned
    assert format_ca(back) == format_ca(c)


def test_validation_messages_a_file_cannot_reach():
    # parse_ca lists every location a line names, so only a machine built
    # in code can miss its initial location or a transition's target
    c = CounterAutomaton(alphabet("a"), ("p",), "r", 1, [("p", "a", "inc", 1, "s")], ())
    assert validate_ca(c) == ["initial location 'r' missing",
                                 "transition touches unknown location: ('p', 'a', 'inc', 1, 's')"]
