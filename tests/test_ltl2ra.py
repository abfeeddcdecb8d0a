import random

import pytest

from datawords import ltl
from datawords.corpus import matching_ra
from datawords.errors import NotASentence, PreconditionViolation
from datawords.ltl import Atom, Freeze, Next, Reg, Until, eval_ltl, parse_ltl
from datawords.ltl2ra import closure, ltl_to_ara, unfolding
from datawords.ra import TOr, accepts, classify_ra, validate
from datawords.words import alphabet, enumerate_data_words

AB = alphabet("a", "b")


def all_words(max_len=3):
    return list(enumerate_data_words(AB, max_len))


def agree(phi, max_len=3):
    a = ltl_to_ara(phi, AB)
    assert validate(a) == [], validate(a)
    for w in enumerate_data_words(AB, max_len):
        assert accepts(a, w) == eval_ltl(w, 0, {}, phi), (phi, w)
    return a


def test_atomic_case():
    a = agree(Atom("a"), 2)
    # the atom location dispatches to accept/reject on the letter
    tf = a.delta[ltl.Atom("a")]
    from datawords.ra import TTest, BLetter
    assert tf == TTest(BLetter("a"), ltl.TOP, ltl.BOT)


def test_until_unfolding_shape():
    u = Until(Atom("a"), Atom("b"))
    a = ltl_to_ara(u, AB)
    unf, _ = unfolding(u)
    assert a.delta[u] == TOr(Atom("b"), unf)
    assert a.rank[u] % 2 == 1
    assert a.rank[unf] == a.rank[u]


def test_dual_until_rank_even():
    g = ltl.nnf(parse_ltl("G a", AB))
    a = ltl_to_ara(parse_ltl("G a", AB), AB)
    assert isinstance(g, ltl.DualUntil)
    assert a.rank[g] % 2 == 0


def test_rejects_open_formulas():
    with pytest.raises(NotASentence):
        ltl_to_ara(Reg(1), AB)


def test_rejects_register_zero():
    # the parser refuses store0; a formula built in Python is refused here,
    # not by the acceptance game's IndexError
    with pytest.raises(PreconditionViolation,
                       match="^register 0 out of range: registers count from 1$"):
        ltl_to_ara(Freeze(0, Reg(0)), AB)


def test_example_sentence_matches_eval_and_fig3(phi):
    a = ltl_to_ara(phi, AB)
    assert validate(a) == []
    assert classify_ra(a).one_way
    mra = matching_ra()
    for w in enumerate_data_words(AB, 4):
        want = eval_ltl(w, 0, {}, phi)
        assert accepts(a, w) == want, w
        assert accepts(mra, w) == want, w


def random_sentence(rng, size=8):
    """Random sentences of the one-register future fragment (X, U)."""

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
        if k == "top":
            return ltl.TOP, 1
        if k == "bot":
            return ltl.BOT, 1
        if k == "reg":
            return ltl.Reg(1), 1
        if k == "not":
            f, n = go(budget - 1, under)
            return ltl.Not(f), n + 1
        if k == "next":
            f, n = go(budget - 1, under)
            return ltl.Next(f), n + 1
        if k == "freeze":
            f, n = go(budget - 1, True)
            return ltl.Freeze(1, f), n + 1
        l, nl = go((budget - 1) // 2, under)
        r, nr = go(budget - 1 - nl, under)
        ctor = {"and": ltl.And, "or": ltl.Or, "until": ltl.Until}[k]
        return ctor(l, r), nl + nr + 1

    f, _ = go(size, False)
    return f


def test_language_preservation_random():
    rng = random.Random(42)
    words = all_words()
    for _ in range(30):
        phi = random_sentence(rng)
        a = ltl_to_ara(phi, AB)
        assert validate(a) == []
        assert classify_ra(a).one_way
        for w in words:
            assert accepts(a, w) == eval_ltl(w, 0, {}, phi), (phi, w)


def test_two_way_fragment():
    phi = parse_ltl("F (b & Xp a)", AB)
    a = ltl_to_ara(phi, AB)
    assert validate(a) == []
    assert not classify_ra(a).one_way
    for w in all_words():
        assert accepts(a, w) == eval_ltl(w, 0, {}, phi), w


@pytest.mark.parametrize("text", ["Gp a", "F (b & !(a Up b))", "G (b -> Gp (a | b))"])
def test_weak_past_fragment(text):
    # the negation normal form turns these into dual sinces, whose one-step
    # unfoldings move by weak previous steps
    agree(parse_ltl(text, AB), 4)


def test_since_fragment():
    phi = parse_ltl("F (b & (true Up a))", AB)
    agree(phi)
