import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from datawords.corpus import matching_ra
from datawords import games, ra
from datawords.errors import ClassMismatch, PreconditionViolation, StateSpaceBudgetExceeded
from datawords.games import check_strategy
from datawords.graph import sccs
from datawords.ltl import eval_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra import (
    BBeg, BEnd, BLetter, BUp, RegisterAutomaton, TAnd, TBottom, TMove, TOr, TStore, TTest,
    TTop, accepting_strategy, acceptance_game, accepts, assign_annotations,
    classify_ra, complement, dual, format_ra, intersect, parse_ra, product_1nra,
    ra_to_dot, relabel, tf_targets, union, validate,
)
from datawords.words import alphabet, enumerate_data_words, make_data_word

from test_acceptance import _random_xu_sentence
from test_games import rank_increases

AB = alphabet("a", "b")


def all_words(max_len=3):
    return list(enumerate_data_words(AB, max_len))


@pytest.fixture(scope="module")
def mra():
    return matching_ra()


def first_letter_ra(letter):
    """1NRA accepting words whose first letter is the given one."""
    delta = {
        "s": TTest(BLetter(letter), "acc", "rej"),
        "acc": TTop(),
        "rej": TBottom(),
    }
    rank, height = assign_annotations(["s", "acc", "rej"], delta)
    return RegisterAutomaton(AB, ("s", "acc", "rej"), "s", 0, delta, rank, height)


def repeat_class_ra():
    """1NRA: some two positions share a class (store, then hunt)."""
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
    locs = list(delta)
    rank, height = assign_annotations(locs, delta)
    return RegisterAutomaton(AB, tuple(locs), "s", 1, delta, rank, height)


def test_validate_fig3(mra):
    assert validate(mra) == []


def test_validate_catches_bad_height():
    a = RegisterAutomaton(AB, ("q",), "q", 0, {"q": TAnd("q", "q")}, {"q": 0}, {"q": 0})
    assert any("height" in v for v in validate(a))


def test_validate_catches_bad_rank():
    delta = {"q": TStore(1, "r"), "r": TTop()}
    a = RegisterAutomaton(AB, ("q", "r"), "q", 1, delta, {"q": 0, "r": 1}, {"q": 1, "r": 0})
    assert any("rank" in v for v in validate(a))


def test_classify(mra):
    c = classify_ra(mra)
    assert c.one_way and not c.nondeterministic and not c.universal
    det = first_letter_ra("a")
    cd = classify_ra(det)
    assert cd.deterministic
    back = RegisterAutomaton(AB, ("q", "r"), "q", 0,
                             {"q": TMove(False, False, "r"), "r": TTop()},
                             {"q": 0, "r": 0}, {"q": 0, "r": 0})
    assert not classify_ra(back).one_way


def test_dual_table(mra):
    d = dual(mra)
    assert isinstance(d.delta["q15"], TBottom)
    assert isinstance(d.delta["q16"], TTop)
    assert d.delta["q5"] == TMove(True, True, "q6")  # X becomes weak X
    assert d.rank["q1"] == mra.rank["q1"] + 1
    dd = dual(d)
    assert dd.delta == mra.delta
    assert all(dd.rank[q] == mra.rank[q] + 2 for q in mra.locations)


def test_fig3_rejects_running_example(mra, sigma_word):
    assert accepts(mra, sigma_word) is False
    assert accepts(mra, make_data_word("ab", [{0, 1}])) is True
    assert accepts(dual(mra), sigma_word) is True


def test_fig3_matches_sentence(mra, phi):
    for w in all_words():
        assert accepts(mra, w) == eval_ltl(w, 0, {}, phi), w


def test_dual_flips_every_verdict(mra):
    d = dual(mra)
    for w in all_words():
        assert accepts(d, w) == (not accepts(mra, w)), w


def test_acceptance_game_shapes(mra, sigma_word):
    game, init = acceptance_game(mra, sigma_word)
    assert init == (0, "q1", (None,))
    top = RegisterAutomaton(AB, ("q",), "q", 0, {"q": TTop()}, {"q": 0}, {"q": 0})
    g, i0 = acceptance_game(top, make_data_word("a", [{0}]))
    assert g.successors(i0) == () and g.owner[i0] == 2
    move = RegisterAutomaton(AB, ("q", "r"), "q", 0,
                             {"q": TMove(True, False, "r"), "r": TTop()},
                             {"q": 0, "r": 0}, {"q": 0, "r": 0})
    g, i0 = acceptance_game(move, make_data_word("a", [{0}]))
    assert g.successors(i0) == () and g.owner[i0] == 1  # strong X at the end


def test_budget_guard(mra, sigma_word):
    with pytest.raises(StateSpaceBudgetExceeded):
        accepts(mra, sigma_word, max_states=3)


@pytest.mark.parametrize("bad", [0, -3, "5", 2.5, None])
def test_max_states_must_be_a_positive_int(mra, sigma_word, bad):
    for decide in (acceptance_game, accepts, accepting_strategy):
        with pytest.raises(PreconditionViolation, match="max_states .* is not an int"):
            decide(mra, sigma_word, max_states=bad)
    assert accepts(mra, make_data_word("ab", [{0, 1}]), max_states=1000) is True


def test_accepts_builds_no_certificate(mra, sigma_word, phi, monkeypatch):
    """Acceptance asks the game for the winner at its initial state alone:
    no positional strategy and no signature are extracted."""
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate was built")

    monkeypatch.setattr(games, "PositionalStrategy", refuse)
    monkeypatch.setattr(games, "_signature", refuse, raising=False)
    for a in (ltl_to_ara(phi, AB), mra, dual(mra)):
        for w in [sigma_word] + all_words():
            accepts(a, w)
    with pytest.raises(AssertionError, match="a certificate was built"):
        accepting_strategy(mra, sigma_word)


def test_accepts_reads_each_rank_once(mra, phi, monkeypatch):
    """The winner pass reads the rank of each position once, to put it in
    its stratum, and nothing reads a rank per edge."""
    class Ranks(dict):
        def __getitem__(self, p):
            reads[p] = reads.get(p, 0) + 1
            return dict.__getitem__(self, p)

        def get(self, p, default=None):
            reads[p] = reads.get(p, 0) + 1
            return dict.get(self, p, default)

    def counting_game(positions, owner, succ, rank):
        built.append(positions)
        return games.WeakGame(positions, owner, succ, Ranks(rank))

    monkeypatch.setattr(ra, "WeakGame", counting_game)
    for a in (ltl_to_ara(phi, AB), mra, dual(mra)):
        for w in all_words():
            built, reads = [], {}
            accepts(a, w)
            assert reads == dict.fromkeys(built[0], 1)


def test_accepts_refuses_a_reachable_rank_increase():
    # q0 stores and steps up from rank 0 to q1 at rank 1
    delta = {"q0": TStore(1, "q1"), "q1": TTop()}
    a = RegisterAutomaton(AB, ("q0", "q1"), "q0", 1, delta, {"q0": 0, "q1": 1},
                          {"q0": 1, "q1": 0})
    assert validate(a) == ["rank increases along 'q0' -> 'q1'"]
    w = make_data_word("a", [{0}])
    with pytest.raises(ValueError, match=r"rank increases along \(0, 'q0', \(None,\)\) -> "
                                         r"\(0, 'q1', \(0,\)\)"):
        accepts(a, w)
    # an increase that the game does not reach is not met
    b = RegisterAutomaton(AB, ("q0", "q1"), "q1", 1, delta, {"q0": 0, "q1": 1},
                          {"q0": 1, "q1": 0})
    assert accepts(b, w)


def test_pathfinder_strategy_matches_fig4(mra, sigma_word):
    winner, strat, visited = accepting_strategy(mra, sigma_word)
    assert winner == 2
    v0 = (None,)
    v1 = (1,)  # register holds the class of position 1, i.e. block {1}
    expected = {
        (0, "q1", v0), (0, "q2", v0), (1, "q1", v0), (1, "q3", v0),
        (1, "q4", v0), (1, "q5", v1), (2, "q6", v1), (2, "q11", v1),
        (2, "q12", v1), (2, "q13", v1), (2, "q14", v1), (2, "q16", v1),
    }
    assert visited == expected


def test_product_is_conjunction():
    a1 = first_letter_ra("a")
    a2 = first_letter_ra("b")
    p = product_1nra(a1, a2)
    assert validate(p) == []
    for w in all_words():
        assert accepts(p, w) is False  # the first letter cannot be both

    rep = repeat_class_ra()
    p2 = product_1nra(a1, rep)
    assert validate(p2) == []
    for w in all_words():
        assert accepts(p2, w) == (accepts(a1, w) and accepts(rep, w)), w


def test_product_heights_and_registers():
    a1, a2 = repeat_class_ra(), repeat_class_ra()
    p = product_1nra(a1, a2)
    assert p.n_registers == 2
    q = (a1.initial, a2.initial)
    assert p.height[q] == a1.height[a1.initial] + a2.height[a2.initial]
    assert p.rank[q] == (a1.rank[a1.initial] + 1) * (a2.rank[a2.initial] + 1) + 1


def test_product_with_top_automaton():
    everything = RegisterAutomaton(AB, ("t",), "t", 0, {"t": TTop()}, {"t": 0}, {"t": 0})
    rep = repeat_class_ra()
    p = product_1nra(rep, everything)
    for w in all_words():
        assert accepts(p, w) == accepts(rep, w), w


def test_product_requires_1nra(mra):
    with pytest.raises(ClassMismatch):
        product_1nra(mra, first_letter_ra("a"))


def test_complement_is_dual(mra):
    c = complement(mra)
    for w in all_words(2):
        assert accepts(c, w) == (not accepts(mra, w))


def test_union_and_intersect_semantics():
    a1 = first_letter_ra("a")
    rep = repeat_class_ra()
    u = union(a1, rep)
    assert u.n_registers == max(a1.n_registers, rep.n_registers)
    i = intersect(a1, rep)  # both nondeterministic one-way: product
    assert i.n_registers == a1.n_registers + rep.n_registers
    for w in all_words():
        assert accepts(u, w) == (accepts(a1, w) or accepts(rep, w)), w
        assert accepts(i, w) == (accepts(a1, w) and accepts(rep, w)), w


def test_union_of_universal_goes_through_duals():
    u1, u2 = dual(first_letter_ra("a")), dual(repeat_class_ra())
    assert classify_ra(u1).universal and classify_ra(u2).universal
    u = union(u1, u2)
    assert classify_ra(u).universal
    assert u.n_registers == u1.n_registers + u2.n_registers
    for w in all_words(2):
        assert accepts(u, w) == (accepts(u1, w) or accepts(u2, w)), w


def test_intersect_alternating_max_registers(mra):
    rep = repeat_class_ra()
    i = intersect(mra, rep)
    assert i.n_registers == 1
    for w in all_words(2):
        assert accepts(i, w) == (accepts(mra, w) and accepts(rep, w)), w


def test_text_format_round_trip(mra):
    text = format_ra(mra)
    back = parse_ra(text)
    assert validate(back) == []
    for w in all_words(2):
        assert accepts(back, w) == accepts(mra, w)


def test_dot_export(mra):
    dot = ra_to_dot(mra)
    assert dot.startswith("digraph") and "store1" in dot


def test_unique_successor_owner_is_irrelevant(mra):
    """Test/store/single-move states default to player 1; flipping them to
    player 2 cannot change any verdict (they have exactly one move)."""
    from datawords.games import WeakGame, solve
    rng_words = list(enumerate_data_words(AB, 2))
    for w in rng_words[:12]:
        game, init = acceptance_game(mra, w)
        flipped_owner = dict(game.owner)
        for p in game.positions:
            if len(game.successors(p)) == 1:
                flipped_owner[p] = 3 - game.owner[p]
        flipped = WeakGame(list(game.positions), flipped_owner,
                           dict(game.succ), dict(game.rank))
        assert solve(game, init)[0] == solve(flipped, init)[0], w


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 16))
def test_format_parse_round_trip_translated(rng, size):
    """The text keeps everything; locations that are not names, such as the
    formulas of translated automata, are named q0.. by position."""
    a = ltl_to_ara(_random_xu_sentence(rng, size), AB)
    names = {q: q if isinstance(q, str) else f"q{k}" for k, q in enumerate(a.locations)}
    assert parse_ra(format_ra(a)) == relabel(a, names.__getitem__)


def reference_assign_annotations(locations, delta, even_cycles=()):
    """The recursive ranks and heights that ``assign_annotations`` replaced:
    a memoized longest-chain recursion and a recursion over the components."""
    locations = list(locations)
    even_cycles = set(even_cycles)

    height: dict = {}

    def h(q):
        if q in height:
            if height[q] is None:
                raise ValueError(f"non-moving cycle through {q!r}")
            return height[q]
        height[q] = None
        tf = delta[q]
        if isinstance(tf, TMove) or isinstance(tf, (TTop, TBottom)):
            height[q] = 0
        else:
            height[q] = 1 + max((h(t) for t in tf_targets(tf)), default=0)
        return height[q]

    for q in locations:
        h(q)

    edges = {q: tf_targets(delta[q]) for q in locations}
    comps = sccs(set(locations), edges)
    comp_of = {}
    for k, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = k
    rank_of_comp: dict[int, int] = {}

    def crank(k):
        if k in rank_of_comp:
            return rank_of_comp[k]
        comp = comps[k]
        below = 0
        for q in comp:
            for t in edges[q]:
                if comp_of[t] != k:
                    below = max(below, crank(comp_of[t]))
        cyclic = len(comp) > 1 or any(q in edges[q] for q in comp)
        r = below
        if cyclic:
            want_even = any(q in even_cycles for q in comp)
            if want_even and r % 2 == 1:
                r += 1
            if not want_even and r % 2 == 0:
                r += 1
        rank_of_comp[k] = r
        return r

    rank = {q: crank(comp_of[q]) for q in locations}
    return rank, height


def random_transitions(rng, n):
    """Transition formulas of all ten kinds (the four moves count apart)
    over locations 0..n-1, with in-place and moving cycles alike."""
    def tf():
        q, r = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(10)
        if kind == 0:
            guard = rng.choice([BLetter("a"), BBeg(), BEnd(), BUp(1)])
            return TTest(guard, q, r)
        if kind == 1:
            return TStore(1, q)
        if kind in (2, 3):
            return (TAnd, TOr)[kind - 2](q, r)
        if kind in (4, 5):
            return (TTop, TBottom)[kind - 4]()
        return TMove(kind in (6, 7), kind in (6, 8), q)

    return {q: tf() for q in range(n)}


def test_assign_annotations_equals_reference():
    rng = random.Random(2006)
    raised = 0
    for _ in range(1500):
        n = rng.randint(1, 9)
        delta = random_transitions(rng, n)
        locs = rng.sample(range(n), n)
        even = {q for q in locs if rng.random() < 0.4}
        try:
            want = reference_assign_annotations(locs, delta, even)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="non-moving cycle through"):
                assign_annotations(locs, delta, even)
            continue
        got = assign_annotations(locs, delta, even)
        assert got == want, delta
        assert [list(d) for d in got] == [locs, locs]  # both in location order
    assert 300 < raised < 1200  # both outcomes are exercised


def test_assign_annotations_long_chains():
    """A 3,000-step in-place chain gets its heights, and a chain of 1,500
    move cycles its ranks, with no recursion in either."""
    from test_ra2ca import in_place_chain

    a = in_place_chain(3000)
    assert assign_annotations(a.locations, a.delta)[1] == a.height
    pairs = 1500
    delta = {}
    for i in range(pairs):
        delta[2 * i] = TOr(2 * i + 1, 2 * i + 2)
        delta[2 * i + 1] = TMove(True, False, 2 * i)
    delta[2 * pairs] = TTop()
    even = range(0, 2 * pairs, 4)  # every other cycle wants an even rank
    rank, height = assign_annotations(list(delta), delta, even)
    assert [rank[2 * i] for i in range(pairs)] == list(range(pairs, 0, -1))
    assert [height[2 * i] for i in range(pairs)] == list(range(pairs, 0, -1))
    locs = tuple(delta)
    assert validate(RegisterAutomaton(AB, locs, 0, 0, delta, rank, height)) == []


def test_validation_message_a_file_cannot_reach():
    # parse_ra gives every location line a transition formula
    a = RegisterAutomaton(alphabet("a"), ("q0",), "q0", 1, {}, {"q0": 0}, {"q0": 0})
    assert validate(a) == ["no transition formula at 'q0'"]


def test_accepting_strategies_check_on_random_automata():
    """The winner's strategy, extracted from the winner pass, wins from the
    initial state: on translated sentences, their duals and random two-way
    automata with a register, against every word of length up to 3."""
    rng = random.Random(30)
    automata = []
    while len(automata) < 24:
        n = rng.randint(2, 9)
        delta = random_transitions(rng, n)
        try:
            rank, height = assign_annotations(range(n), delta)
        except ValueError:  # a non-moving cycle
            continue
        automata.append(RegisterAutomaton(AB, tuple(range(n)), 0, 1, delta, rank, height))
        translated = ltl_to_ara(_random_xu_sentence(rng, rng.randint(2, 10)), AB)
        automata += [translated, dual(translated)]
    players = set()
    for a in automata:
        for w in all_words():
            winner, strat, visited = accepting_strategy(a, w)
            game, init = acceptance_game(a, w)
            assert strat.player == winner and winner == (1 if accepts(a, w) else 2)
            assert check_strategy(game, init, strat), (format_ra(a), w)
            assert visited <= set(game.positions)
            players.add(winner)
    assert players == {1, 2}


def random_1nra(rng, n, n_reg):
    """A random one-way nondeterministic automaton over locations 0..n-1
    with n_reg registers, or None when a cycle of it does not move."""
    def tf():
        q, r, reg = rng.randrange(n), rng.randrange(n), rng.randint(1, n_reg)
        kind = rng.randrange(6)
        if kind == 0:
            return TTest(rng.choice([BLetter("a"), BEnd(), BUp(reg)]), q, r)
        if kind == 1:
            return TStore(reg, q)
        if kind == 2:
            return TOr(q, r)
        if kind == 3:
            return rng.choice([TTop(), TBottom()])
        return TMove(True, kind == 4, q)

    delta = {q: tf() for q in range(n)}
    try:
        rank, height = assign_annotations(range(n), delta)
    except ValueError:
        return None
    return RegisterAutomaton(AB, tuple(range(n)), 0, n_reg, delta, rank, height)


def test_acceptance_games_of_random_automata_are_weak():
    """No edge of an acceptance game raises the rank, by the per-edge
    reference check, on translated sentences, duals, products, unions and
    intersections with one to three registers, against every word of
    length up to 3.  Only the winner pass checks this on the way."""
    rng = random.Random(32)
    nras = []
    while len(nras) < 12:
        a = random_1nra(rng, rng.randint(3, 8), 1 + len(nras) % 2)
        if a is not None and classify_ra(a).nondeterministic:
            nras.append(a)
    automata = []
    for k in range(12):
        translated = ltl_to_ara(_random_xu_sentence(rng, rng.randint(4, 14)), AB)
        x, y = nras[k], nras[k - 1]
        automata += [translated, dual(translated), product_1nra(x, y),
                     union(x, translated), intersect(x, y), intersect(dual(translated), y)]
    assert {1, 2, 3} <= {a.n_registers for a in automata}
    for a in automata:
        assert validate(a) == [], format_ra(a)
        for w in all_words():
            game, _ = acceptance_game(a, w)
            assert rank_increases(game) == [], (format_ra(a), w)
