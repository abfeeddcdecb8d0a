import itertools
import random

from datawords.games import (
    PositionalStrategy, WeakGame, check_signature, check_strategy, game_to_dot,
    signature, solve, strategy_closure, winners,
)


def winning_regions(g: WeakGame) -> tuple[set, set]:
    """The positions each player wins, from one winner pass over the game."""
    winner = winners(g).winner
    return ({p for p, w in winner.items() if w == 1},
            {p for p, w in winner.items() if w == 2})


def game(owner, succ, rank):
    positions = list(owner)
    return WeakGame(positions, dict(owner), {p: list(q) for p, q in succ.items()}, dict(rank))


def test_dead_end_owned_by_p2_is_p1_win():
    g = game({"p": 2}, {"p": []}, {"p": 0})
    winner, strat = solve(g, "p")
    assert winner == 1
    assert check_strategy(g, "p", strat)
    assert check_strategy(g, "p", PositionalStrategy(1, {}))


def test_even_self_loop_owned_by_p1_is_p1_win():
    g = game({"p": 1}, {"p": ["p"]}, {"p": 2})
    winner, strat = solve(g, "p")
    assert winner == 1
    assert check_strategy(g, "p", strat)
    # and player 2 loses the infinite play
    assert not check_strategy(g, "p", PositionalStrategy(2, {}))


def test_odd_self_loop_owned_by_p1_is_p2_win():
    g = game({"p": 1}, {"p": ["p"]}, {"p": 1})
    winner, _ = solve(g, "p")
    assert winner == 2
    assert "p" not in signature(g)


def test_escape_choice():
    # p1 can step from the odd loop to a winning dead end
    g = game({"p": 1, "q": 2}, {"p": ["p", "q"], "q": []}, {"p": 1, "q": 0})
    winner, strat = solve(g, "p")
    assert winner == 1
    assert strat.choice["p"] == "q"
    assert check_strategy(g, "p", strat)
    bad = PositionalStrategy(1, {"p": "p"})
    assert not check_strategy(g, "p", bad)


def test_signature_examples():
    g = game(
        {"p2dead": 2, "p1dead": 1, "loop": 1},
        {"p2dead": [], "p1dead": [], "loop": ["loop"]},
        {"p2dead": 0, "p1dead": 0, "loop": 1},
    )
    alpha = signature(g)
    assert "p2dead" in alpha and alpha["p2dead"] == 0
    assert "p1dead" not in alpha
    assert "loop" not in alpha
    win1, _ = winning_regions(g)
    assert set(alpha) == win1


def random_game(rng, n=7):
    ranks = {i: rng.randint(0, 3) for i in range(n)}
    owner = {i: rng.choice([1, 2]) for i in range(n)}
    succ = {}
    for i in range(n):
        allowed = [j for j in range(n) if ranks[j] <= ranks[i]]
        k = rng.randint(0, min(3, len(allowed)))
        succ[i] = rng.sample(allowed, k)
    return game(owner, succ, ranks)


def test_determinacy_and_agreement_on_random_games():
    rng = random.Random(7)
    for _ in range(120):
        g = random_game(rng)
        win1, win2 = winning_regions(g)
        assert win1 | win2 == set(g.positions)
        assert not (win1 & win2)
        alpha = signature(g)
        assert set(alpha) == win1
        ok, why = check_signature(g, alpha)
        assert ok, why
        won = winners(g).winner
        for p in g.positions:
            winner, strat = solve(g, p)
            assert won[p] == winner
            assert (winner == 1) == (p in win1)
            assert check_strategy(g, p, strat), (g, p)


def test_strategy_closure_and_dot():
    g = game({"p": 1, "q": 2}, {"p": ["q"], "q": []}, {"p": 0, "q": 0})
    s = PositionalStrategy(1, {"p": "q"})
    assert strategy_closure(g, "p", s) == {"p", "q"}
    dot = game_to_dot(g)
    assert "box" in dot and "ellipse" in dot


def test_check_strategy_rejects_an_undefined_choice():
    # the strategy's owner must move at p: a missing choice, or one that is
    # not a successor, fails the check
    g = game({"p": 1, "q": 2}, {"p": ["q"], "q": []}, {"p": 0, "q": 0})
    assert check_strategy(g, "p", PositionalStrategy(1, {"p": "q"}))
    for choice in ({}, {"p": "p"}):
        assert strategy_closure(g, "p", PositionalStrategy(1, choice)) is None
        assert not check_strategy(g, "p", PositionalStrategy(1, choice))


def test_check_strategy_rejects_a_play_ending_at_its_owner():
    # player 2 moves from p to a dead end of either player; whoever is stuck
    # there loses
    g = game({"p": 2, "d1": 1, "d2": 2}, {"p": ["d1", "d2"], "d1": [], "d2": []},
             {"p": 0, "d1": 0, "d2": 0})
    assert not check_strategy(g, "p", PositionalStrategy(1, {}))
    assert not check_strategy(g, "p", PositionalStrategy(2, {"p": "d2"}))
    assert check_strategy(g, "p", PositionalStrategy(2, {"p": "d1"}))


def test_check_signature_rejections():
    # player 1 at p needs a successor in the domain that does not raise the
    # signature; every successor of player 2 at r must be such a one
    g = game({"p": 1, "r": 2, "s": 2}, {"p": ["s"], "r": ["s"], "s": []},
             {"p": 1, "r": 1, "s": 1})
    assert check_signature(g, {"p": 1, "r": 1, "s": 0}) == (True, "")
    assert check_signature(g, {"p": 0, "s": 1}) == (False, "no consistent successor at 'p'")
    assert check_signature(g, {"p": 1}) == (False, "no consistent successor at 'p'")
    assert check_signature(g, {"r": 0}) == (False, "successor 's' of 'r' escapes the domain")
    # equal keys do only at an even rank, and r's rank is odd
    assert check_signature(g, {"r": 0, "s": 0}) == \
        (False, "signature increases along 'r' -> 's'")
