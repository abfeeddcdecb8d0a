import re
import time
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from datawords import fo, ltl
from datawords.errors import ParseError, PositionOutOfRange, UnknownAtom
from datawords.ltl import (
    BOT, TOP, Always, And, Atom, Bottom, DualSince, DualUntil, Formula, Freeze, Future,
    Implies, NAtom, Next, NReg, Not, Or, Past, PastAlways, Prev, Reg, Since, Top, Until,
    WNext, WPrev, big_and, big_or, classify, desugar, eval_ltl, format_ltl, is_sentence,
    is_simple_in, least_simple_m, nnf, parse_ltl, sat_bounded, size,
)
from datawords.words import DataWord, alphabet, enumerate_data_words, make_data_word

from test_acceptance import _random_simple_sentence, _random_xu_sentence
from test_ra2ca import CIRCLE_SENTENCES

AB = alphabet("a", "b")


def all_words(max_len=3):
    return list(enumerate_data_words(AB, max_len))


def reference_eval(w: DataWord, i: int, v: dict[int, int], phi: Formula) -> bool:
    """The satisfaction relation by recursion on phi, read off its
    definition: the reference that ``eval_ltl``'s labeling is tested against."""
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
        return not reference_eval(w, i, v, phi.body)
    if t is And:
        return reference_eval(w, i, v, phi.left) and reference_eval(w, i, v, phi.right)
    if t is Or:
        return reference_eval(w, i, v, phi.left) or reference_eval(w, i, v, phi.right)
    if t is Implies:
        return (not reference_eval(w, i, v, phi.left)) or reference_eval(w, i, v, phi.right)
    if t is Next:
        return i + 1 < n and reference_eval(w, i + 1, v, phi.body)
    if t is WNext:
        return i + 1 >= n or reference_eval(w, i + 1, v, phi.body)
    if t is Prev:
        return i - 1 >= 0 and reference_eval(w, i - 1, v, phi.body)
    if t is WPrev:
        return i - 1 < 0 or reference_eval(w, i - 1, v, phi.body)
    if t is Future:
        return any(reference_eval(w, j, v, phi.body) for j in range(i, n))
    if t is Past:
        return any(reference_eval(w, j, v, phi.body) for j in range(i, -1, -1))
    if t is Always:
        return all(reference_eval(w, j, v, phi.body) for j in range(i, n))
    if t is PastAlways:
        return all(reference_eval(w, j, v, phi.body) for j in range(i, -1, -1))
    if t is Until:
        for j in range(i, n):
            if reference_eval(w, j, v, phi.right):
                return True
            if not reference_eval(w, j, v, phi.left):
                return False
        return False
    if t is DualUntil:
        for j in range(i, n):
            if not reference_eval(w, j, v, phi.right):
                return False
            if reference_eval(w, j, v, phi.left):
                return True
        return True
    if t is Since:
        for j in range(i, -1, -1):
            if reference_eval(w, j, v, phi.right):
                return True
            if not reference_eval(w, j, v, phi.left):
                return False
        return False
    if t is DualSince:
        for j in range(i, -1, -1):
            if not reference_eval(w, j, v, phi.right):
                return False
            if reference_eval(w, j, v, phi.left):
                return True
        return True
    if t is Freeze:
        v2 = dict(v)
        v2[phi.register] = w.class_of[i]
        return reference_eval(w, i, v2, phi.body)
    if t is Reg:
        cls = v.get(phi.register)
        return cls is not None and w.class_of[i] == cls
    if t is NReg:
        cls = v.get(phi.register)
        return cls is None or w.class_of[i] != cls
    raise TypeError(f"unknown formula node {phi!r}")


def test_parse_example_formula(phi):
    assert format_ltl(phi)  # printable
    info = classify(phi)
    assert info.operators == frozenset({"X", "F", "G"})
    assert info.max_register == 1
    assert info.is_sentence
    assert info.is_simple_Om is None  # the G is bare, not under a freeze


def test_parse_round_trip(phi):
    assert parse_ltl(format_ltl(phi), AB) == phi


def test_parse_trivia():
    assert parse_ltl("true") == Top()
    up = parse_ltl("up1")
    assert up == Reg(1)
    assert not classify(up).is_sentence


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ltl("a &")
    with pytest.raises(UnknownAtom):
        parse_ltl("c", AB)
    with pytest.raises(ParseError):
        parse_ltl("(a")


def test_unexpected_character_is_named_past_the_blanks():
    """The error names the character and its place, not the blanks before
    it; parse_fo shares the tokenizer."""
    for text, at in (("a &  $", 5), ("$", 0), ("a\n\t #", 4)):
        with pytest.raises(ParseError) as err:
            parse_ltl(text, AB)
        assert (err.value.message, err.value.position) == \
            (f"unexpected character {text[at]!r}", at)
    with pytest.raises(ParseError, match="unexpected character '\\$' \\(at 8\\)"):
        fo.parse_fo("Pa(x0)  $")
    assert parse_ltl("a &  b \n", AB) == parse_ltl("a & b", AB)


def test_register_zero_is_a_parse_error():
    """Registers count from 1, as in the automata: store0 and up0 are
    refused where they stand, before ltl_to_ara could index register 0."""
    for text, at in (("store0 up0", 0), ("a & up0", 4), ("store1 X store00 up1", 9)):
        with pytest.raises(ParseError, match=f"register 0 out of range.*\\(at {at}\\)"):
            parse_ltl(text)
    assert parse_ltl("store01 up1") == Freeze(1, Reg(1))


def test_precedence():
    assert parse_ltl("a -> b | a & b") == parse_ltl("a -> (b | (a & b))")
    assert parse_ltl("a U b U a") == parse_ltl("a U (b U a)")
    assert parse_ltl("!a U b") == Until(Not(Atom("a")), Atom("b"))
    assert parse_ltl("X a U b") == Until(Next(Atom("a")), Atom("b"))


def test_parse_long_prefix_chains():
    """A chain of prefix operators costs the parser no recursion depth; the
    result is walked in a loop, since format_ltl and == still recurse."""
    f = parse_ltl("X " * 1000 + "a", AB)
    for _ in range(1000):
        assert type(f) is Next
        f = f.body
    assert f == Atom("a")
    ops = [("!", Not), ("X", Next), ("Xp", Prev), ("F", Future), ("Fp", Past),
           ("G", Always), ("Gp", PastAlways), ("store2", Freeze)]
    chain = [ops[k % len(ops)] for k in range(1200)]
    f = parse_ltl(" ".join(tok for tok, _ in chain) + " a U b")
    assert type(f) is Until and f.right == Atom("b")
    f = f.left
    for _tok, ctor in chain:
        assert type(f) is ctor
        if ctor is Freeze:
            assert f.register == 2
        f = f.body
    assert f == Atom("a")


def test_eval_example(phi, sigma_word):
    # the worked example: "aab" with 0~2 falsifies phi at position 0
    assert eval_ltl(sigma_word, 0, {}, phi) is False


def test_eval_trivia(sigma_word):
    assert eval_ltl(sigma_word, 1, {}, Top())
    with pytest.raises(PositionOutOfRange):
        eval_ltl(sigma_word, 3, {}, Top())


def test_eval_freeze_and_next(sigma_word):
    f = parse_ltl("store1 X X up1", AB)
    assert eval_ltl(sigma_word, 0, {}, f) is True  # 0 ~ 2
    assert eval_ltl(sigma_word, 1, {}, f) is False  # no position 3


def test_undefined_register_is_false(sigma_word):
    assert eval_ltl(sigma_word, 0, {}, Reg(1)) is False
    assert eval_ltl(sigma_word, 0, {}, Not(Reg(1))) is True


def battery():
    texts = [
        "!(a & b)", "!X a", "!(a U up1)", "a U (b & store1 X up1)",
        "G (a -> F b)", "store1 F (b & up1)", "!(store1 G !up1)",
        "Xp a | !Xp a", "a Up b", "!(a Up b)", "F a -> true U a",
    ]
    return [parse_ltl(t, AB) for t in texts]


def test_nnf_equivalence():
    for f in battery():
        g = nnf(Not(f))
        for w in all_words():
            for i in range(len(w)):
                assert eval_ltl(w, i, {}, g) == (not eval_ltl(w, i, {}, f)), (f, w, i)


def test_nnf_examples():
    from datawords.ltl import NAtom, WNext
    assert nnf(Not(And(Atom("a"), Atom("b")))) == Or(NAtom("a"), NAtom("b"))
    assert nnf(Not(Next(Atom("a")))) == WNext(NAtom("a"))


def test_freeze_idempotent():
    body = parse_ltl("F (b & up1)", AB)
    f1, f2 = Freeze(1, body), Freeze(1, Freeze(1, body))
    for w in all_words():
        for i in range(len(w)):
            assert eval_ltl(w, i, {}, f1) == eval_ltl(w, i, {}, f2)


def test_future_is_sugar_for_until():
    body = parse_ltl("b & up1", AB)
    f, u = Future(body), Until(Top(), body)
    for w in all_words():
        for i in range(len(w)):
            for v in ({}, {1: 0}):
                assert eval_ltl(w, i, v, f) == eval_ltl(w, i, v, u)


def test_desugar_removes_sugar():
    from datawords.ltl import Always, Implies, Past, PastAlways, subformulas
    for f in battery():
        d = desugar(f)
        assert not any(isinstance(s, (Future, Always, Past, PastAlways, Implies))
                       for s in subformulas(d))
        for w in all_words(2):
            for i in range(len(w)):
                assert eval_ltl(w, i, {}, d) == eval_ltl(w, i, {}, f)


def test_classify_simple_fragment():
    f = parse_ltl("store1 X a", AB)
    assert classify(f).is_simple_Om == 1
    assert is_simple_in(f, 1) and is_simple_in(f, 2) and not is_simple_in(f, 0)

    assert classify(parse_ltl("a", AB)).is_simple_Om == 0

    g = parse_ltl("store1 X F (b & up1)", AB)  # the X^1 F block pins m = 0
    assert classify(g).is_simple_Om == 0
    assert is_simple_in(g, 0) and not is_simple_in(g, 1)

    h = parse_ltl("store1 F b", AB)  # an F block with no X fits no m
    assert classify(h).is_simple_Om is None

    mixed = parse_ltl("store1 X F a & store1 X X F b", AB)
    assert classify(mixed).is_simple_Om is None  # two different F depths

    # a block keeps one direction, so these leave a bare operator behind it
    for text in ("store1 X Xp up1", "store1 X Fp up1", "store1 Xp F up1"):
        assert classify(parse_ltl(text, AB)).is_simple_Om is None, text
    p = parse_ltl("store1 Xp Xp Fp (b & up1)", AB)
    assert classify(p).is_simple_Om == 1
    assert ltl.freeze_block(p.body) == (-2, True, parse_ltl("b & up1", AB))


def test_sat_bounded(phi):
    # phi holds vacuously on any word without an `a`; the enumeration
    # visits "a" (which fails) and then "b", the first model.
    found = sat_bounded(phi, AB, 2)
    assert found == make_data_word("b", [{0}])

    assert sat_bounded(Bottom(), alphabet("a"), 3) is None

    f = parse_ltl("a & store1 F (b & up1)", AB)
    assert sat_bounded(f, AB, 2) == make_data_word("ab", [{0, 1}])

    with pytest.raises(ValueError, match="max_len must be >= 1"):
        sat_bounded(f, AB, 0)


def reference_sat_bounded(phi, sigma, max_len):
    """The first enumerated data word that satisfies phi at position 0 with
    no register defined: one ``reference_eval`` per word."""
    for w in enumerate_data_words(sigma, max_len):
        if reference_eval(w, 0, {}, phi):
            return w
    return None


_LEAVES = st.one_of(
    st.sampled_from([TOP, BOT]),
    st.builds(Atom, st.sampled_from("abc")),  # letters outside the alphabet too
    st.builds(NAtom, st.sampled_from("abc")),
    st.builds(Reg, st.integers(1, 2)),
    st.builds(NReg, st.integers(1, 2)),
)
_UNARY_NODES = [Not, Next, WNext, Prev, WPrev, Future, Past, Always, PastAlways]
_BINARY_NODES = [And, Or, Implies, Until, DualUntil, Since, DualSince]


def _extend(sub):
    return st.one_of(
        st.builds(lambda ctor, f: ctor(f), st.sampled_from(_UNARY_NODES), sub),
        st.builds(Freeze, st.integers(1, 2), sub),
        st.builds(lambda ctor, f, g: ctor(f, g), st.sampled_from(_BINARY_NODES), sub, sub),
    )


# every node type, up to two registers, free registers allowed
FORMULAS = st.recursive(_LEAVES, _extend, max_leaves=10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FORMULAS, st.integers(1, 3), st.integers(1, 4), st.integers(0, 3))
def test_sat_bounded_matches_reference(phi, letters, max_len, min_len):
    """Also with ``X^k true`` conjoined, so that the first model of most
    draws is not a one-letter word, and under two freezes at two positions,
    so that both registers are defined."""
    sigma = alphabet(*"abc"[:letters])
    longer = chain(Next, TOP, min(min_len, max_len - 1))
    for f in (phi, Not(phi), And(longer, phi), And(longer, Not(phi)),
              Freeze(1, Future(Freeze(2, phi)))):
        assert sat_bounded(f, sigma, max_len) == reference_sat_bounded(f, sigma, max_len), f


def pin(w):
    """The sentence that holds at position 0 of the data word w alone."""
    n = len(w)
    parts = [chain(Next, Atom(a), i) for i, a in enumerate(w.letters)]
    parts.append(Not(chain(Next, TOP, n)))
    for i in range(n):
        for j in range(i + 1, n):
            test = Reg(1) if w.class_of[i] == w.class_of[j] else NReg(1)
            parts.append(chain(Next, Freeze(1, chain(Next, test, j - i)), i))
    return big_and(parts)


@st.composite
def data_words(draw, sigma, max_len=4):
    letters = draw(st.lists(st.sampled_from(sigma.letters), min_size=1, max_size=max_len))
    rgs = [0]
    for raw in draw(st.lists(st.integers(0, 3), min_size=len(letters) - 1,
                             max_size=len(letters) - 1)):
        rgs.append(min(raw, max(rgs) + 1))
    return make_data_word(letters, [[i for i, c in enumerate(rgs) if c == k]
                                    for k in range(max(rgs) + 1)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(FORMULAS, st.data())
def test_sat_bounded_on_a_pinned_word_is_eval_ltl(phi, data):
    """With a sentence that only w satisfies conjoined, the answer is w iff
    phi holds at position 0 of w: the labels are checked on words of
    several classes, which first models seldom have."""
    sigma = alphabet(*"abc"[:data.draw(st.integers(1, 3))])
    w = data.draw(data_words(sigma))
    assert sat_bounded(pin(w), sigma, len(w)) == w
    for f in (phi, Not(phi), Freeze(1, Future(Freeze(2, phi)))):
        want = w if reference_eval(w, 0, {}, f) else None
        assert sat_bounded(And(pin(w), f), sigma, len(w)) == want, (f, w)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(FORMULAS, st.data())
def test_eval_ltl_is_reference_eval(phi, data):
    """At every position of words of length 1 to 6, under valuations that
    leave each register free or bind it to a class of the word."""
    w = data.draw(data_words(alphabet("a", "b"), max_len=6))
    v = {r: data.draw(st.integers(0, w.num_classes() - 1))
         for r in (1, 2) if data.draw(st.booleans())}
    for f in (phi, Not(phi)):
        got = [eval_ltl(w, i, v, f) for i in range(len(w))]
        assert got == [reference_eval(w, i, v, f) for i in range(len(w))], (f, w, v)
        assert all(type(x) is bool for x in got)


# its first model, "b b b b ; 0 | 1 | 2 | 3", is the last data word of length 4
LAST_OF_ITS_LENGTH = "X X X true & G b & !F store1 X F up1"


@pytest.mark.parametrize("letters", [("a", "b"), ("u", "v")])
def test_sat_bounded_circle_sentences_match_reference(letters):
    """The seven sentences at every length up to 5, over a,b and over the
    letters a renamed circle seed reads."""
    sigma = alphabet(*letters)
    for text in CIRCLE_SENTENCES.values():
        phi = parse_ltl(re.sub(r"\b[ab]\b", lambda m: letters["ab".index(m[0])], text), sigma)
        for max_len in range(1, 6):
            assert sat_bounded(phi, sigma, max_len) == reference_sat_bounded(phi, sigma, max_len)


TWO_REGISTERS = [
    "store1 X store2 X (up1 & !up2 & Xp Xp up1)",
    "store1 F store2 X F (up1 & !up2 & X up2)",
    "F store2 X store1 F (up2 & !up1 & Xp Fp (up1 & b))",
    "store1 X store2 X (up2 U (up1 & !up2))",
    "store2 X store1 X F (!up2 & Xp !up1 & Fp (a & up1))",
]


@pytest.mark.parametrize("text", TWO_REGISTERS)
def test_sat_bounded_two_registers(text):
    phi = parse_ltl(text, AB)
    for f in (phi, Not(phi)):
        for max_len in range(1, 5):
            assert sat_bounded(f, AB, max_len) == reference_sat_bounded(f, AB, max_len)
    assert sat_bounded(phi, AB, 4) is not None


def test_sat_bounded_chunk_boundaries(monkeypatch):
    """The answer does not depend on where the chunks of letter strings end:
    one string per chunk, or a cap between two string widths."""
    texts = [*CIRCLE_SENTENCES.values(), LAST_OF_ITS_LENGTH]
    want = [sat_bounded(parse_ltl(t, AB), AB, 4) for t in texts]
    assert want[-1] == make_data_word("bbbb", [{0}, {1}, {2}, {3}])
    # a model in every chunk, at every offset in it
    pinned = [make_data_word(s, [{0, 2}, {1}, {3}]) for s in product("ab", repeat=4)]
    width = 15 * 4  # bits per letter string of length 4: 15 partitions
    for cap in (1, 3 * width + width // 2):  # one string a chunk, or three
        monkeypatch.setattr(ltl, "_CHUNK_BITS", cap)
        assert [sat_bounded(parse_ltl(t, AB), AB, 4) for t in texts] == want
        assert [sat_bounded(pin(w), AB, 4) for w in pinned] == pinned


def test_sat_bounded_freeze_chain_is_linear():
    """3,000 nested ``store1 (up1 & ...)`` are labeled once each: a freeze
    that read its body once per class would take 3^3000 steps at length 3."""
    phi = Freeze(1, And(Next(Next(TOP)), Next(Next(NReg(1)))))
    for _ in range(3000):
        phi = Freeze(1, And(Reg(1), phi))
    start = time.perf_counter()
    found = sat_bounded(phi, AB, 3)
    assert time.perf_counter() - start < 5
    assert found == make_data_word("aaa", [{0, 1}, {2}])


def test_parse_long_infix_chains_and_deep_parentheses():
    """Right-nested infix chains and nested parentheses cost the parser no
    recursion depth either; the results are measured with the iterative
    size and walked in a loop."""
    for tok, ctor in (("U", Until), ("Up", Since), ("->", Implies)):
        f = parse_ltl(f"a {tok} " * 1000 + "a", AB)
        assert size(f) == 2001
        for _ in range(1000):
            assert type(f) is ctor and f.left == Atom("a")
            f = f.right
        assert f == Atom("a")
    assert parse_ltl("(" * 400 + "a" + ")" * 400, AB) == Atom("a")
    assert size(parse_ltl("(" * 400 + "a" + " & b)" * 400, AB)) == 801
    f = parse_ltl("X (" * 400 + "a" + " U b)" * 400, AB)
    assert size(f) == 1201
    for _ in range(400):
        assert type(f) is Next and type(f.body) is Until and f.body.right == Atom("b")
        f = f.body.left
    assert f == Atom("a")
    with pytest.raises(ParseError, match="expected '\\)', found None"):
        parse_ltl("(" * 400 + "a" + ")" * 399, AB)
    with pytest.raises(ParseError, match="trailing input '\\)'"):
        parse_ltl("(" * 400 + "a" + ")" * 401, AB)


DEEP = 5000


def chain(ctor, leaf, n=DEEP):
    for _ in range(n):
        leaf = ctor(leaf)
    return leaf


def spine(f):
    """The nodes from f down through each node's last child, found without
    recursion (== on a deep tree would recurse once per level)."""
    out = []
    while isinstance(f, (Formula, fo.FoFormula)):
        out.append(f)
        f = f.body if hasattr(f, "body") else getattr(f, "right", None)
    return out


def kinds(f):
    return [type(g).__name__ for g in spine(f)]


def _deep_size():
    f = chain(Next, Atom("a"))
    assert size(f) == DEEP + 1
    assert size(And(f, f)) == 2 * DEEP + 3  # a shared subtree counts once per occurrence


def _deep_nnf():
    g = nnf(chain(lambda f: Not(Next(f)), Atom("a"), DEEP // 2))
    assert kinds(g) == ["WNext", "Next"] * (DEEP // 4) + ["Atom"]


def _deep_desugar():
    plain = chain(Next, Atom("a"))
    assert desugar(plain) is plain
    g = desugar(chain(Next, Future(Atom("a"))))
    assert kinds(g) == ["Next"] * DEEP + ["Until", "Atom"] and type(spine(g)[DEEP].left) is Top


def _deep_format_ltl():
    assert format_ltl(chain(Next, Atom("a"))) == "X " * DEEP + "a"


def _deep_is_sentence():
    assert is_sentence(chain(partial(Freeze, 1), Reg(1)))
    assert not is_sentence(chain(Next, Reg(1)))


def _deep_format_fo():
    assert fo.format_fo(chain(fo.FoNot, fo.Pred("a", 0))) == "!(" * DEEP + "Pa(x0)" + ")" * DEEP


def _deep_parse_fo():
    assert kinds(fo.parse_fo("! " * DEEP + "Pa(x0)")) == ["FoNot"] * DEEP + ["Pred"]


def _deep_free_vars():
    assert fo.free_vars(chain(partial(fo.Exists, 1), fo.Less(0, 1))) == {0}


def _deep_all_vars():
    assert fo.all_vars(chain(partial(fo.Exists, 2), fo.Less(0, 1))) == {0, 1, 2}


def _deep_max_offset():
    assert fo.max_offset(chain(fo.FoNot, fo.PlusEq(0, 1, 3))) == 3


def _deep_swap():
    g = fo._swap(chain(partial(fo.Exists, 1), fo.Pred("a", 0)))
    assert [h.var for h in spine(g)] == [0] * DEEP + [1]


def _deep_simple_ltl_to_fo2():
    # DEEP / 2 blocks store1 X: each becomes exists x_{1-j} (chi & ...)
    g = fo.simple_ltl_to_fo2(chain(lambda f: Freeze(1, Next(f)), Atom("a"), DEEP // 2), 0, m=1)
    assert kinds(g) == ["Exists", "FoAnd"] * (DEEP // 2) + ["Pred"]
    assert [h.var for h in spine(g)[::2]] == [1, 0] * (DEEP // 4) + [0]


def _deep_simple_ltl_to_fo2_least_m():
    # without m, the least one is read off the same blocks: here m = 1
    phi = chain(lambda f: Freeze(1, Next(f)), Atom("a"), DEEP // 2)
    assert least_simple_m(phi) == 1
    g = fo.simple_ltl_to_fo2(phi, 0)
    assert kinds(g) == ["Exists", "FoAnd"] * (DEEP // 2) + ["Pred"]


def _deep_fo2_to_simple_ltl():
    g = fo.fo2_to_simple_ltl(chain(fo.FoNot, fo.Pred("a", 0)), 0)
    assert kinds(g) == ["Not"] * DEEP + ["Atom"]
    assert format_ltl(g) == "!" * DEEP + "a"


def _deep_fo2_to_simple_ltl_matrix():
    # the x0 ~ x1 conjuncts are true or false under each jump, so the
    # DEEP-deep matrix folds away
    phi = fo.Exists(1, chain(partial(fo.FoAnd, fo.Same(0, 1)), fo.Pred("a", 1)))
    g = fo.fo2_to_simple_ltl(phi, 0)
    assert format_ltl(g) == "store1 Xp Fp (up1 & a) | store1 (up1 & a) | store1 X F (up1 & a)"


def _deep_fo2_to_simple_ltl_nested():
    # 5 nested quantifier pairs under the negations: the output is a DAG
    # whose expanded size multiplies with every pair, so only its spine is read
    phi = fo.Pred("a", 0)
    for _ in range(5):
        phi = fo.Exists(1, fo.FoAnd(fo.Same(0, 1), fo.Exists(0, fo.FoAnd(fo.Less(1, 0), phi))))
    g = fo.fo2_to_simple_ltl(chain(fo.FoNot, phi, DEEP - 5), 0)
    assert kinds(g)[:DEEP - 4] == ["Not"] * (DEEP - 5) + ["Or"]


def _deep_sat_bounded():
    assert sat_bounded(chain(Not, Future(Atom("b"))), AB, 2) == make_data_word("b", [{0}])
    assert sat_bounded(chain(Next, Atom("a")), AB, 2) is None
    nested = chain(lambda f: Freeze(1, And(Reg(1), f)), Atom("a"), DEEP // 2)
    assert sat_bounded(nested, AB, 2) == make_data_word("a", [{0}])


def _deep_eval_ltl():
    w = make_data_word("b", [{0}])
    assert eval_ltl(w, 0, {}, chain(Not, Future(Atom("b")))) is True
    assert eval_ltl(make_data_word("aa", [{0, 1}]), 0, {}, chain(Next, Atom("a"))) is False
    nested = chain(lambda f: Freeze(1, And(Reg(1), f)), Atom("a"), DEEP // 2)
    assert eval_ltl(make_data_word("ab", [{0}, {1}]), 0, {1: 1}, nested) is True


DEEP_CASES = {name[len("_deep_"):]: f for name, f in globals().items() if name.startswith("_deep_")}


@pytest.mark.parametrize("case", sorted(DEEP_CASES))
def test_deep_chain(case):
    DEEP_CASES[case]()


def test_big_and_drops_true_and_absorbs_false():
    a, b = Atom("a"), Atom("b")
    assert big_and([]) is TOP and big_or([]) is BOT
    assert big_and([TOP, a, TOP]) is a and big_or([BOT, a, BOT]) is a
    assert big_and([a, BOT, b]) is BOT and big_or([a, TOP, b]) is TOP
    assert big_and([a, TOP, b]) == And(a, b) and big_or([a, BOT, b]) == Or(a, b)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 24))
def test_format_parse_round_trip_random(rng, size):
    for phi in (_random_xu_sentence(rng, size), _random_simple_sentence(rng, max_size=size)):
        assert parse_ltl(format_ltl(phi), AB) == phi
