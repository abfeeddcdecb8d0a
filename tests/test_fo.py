import random

import pytest
from hypothesis import given, settings, strategies as st

from datawords import ltl
from datawords.errors import (
    NotSimpleFragment, NotTwoVariable, UnboundVariable, UnknownAtom, WrongFreeVariable,
)
from datawords.fo import (
    Exists, FO_BOT, FO_TOP, FoAnd, FoBottom, FoFormula, FoImplies, FoNot, FoOr,
    Forall, FoTop, Less, PlusEq, Pred, Same, _alpha_value, _not2, _op_block, _swap,
    chi, eval_fo, fo2_to_simple_ltl, format_fo, free_vars, max_offset, parse_fo,
    simple_ltl_to_fo2,
)
from datawords.words import alphabet, enumerate_data_words, make_data_word

from test_acceptance import _random_fo2

AB = alphabet("a", "b")

# "from position x0 onwards, no two a's share a class and every a is
# followed by a same-class b", the first-order twin of the running sentence
PHI_PRIME_TEXT = (
    "forall x1 ( !(x1 < x0) & Pa(x1) -> "
    "  (forall x0 (x1 < x0 & Pa(x0) -> !(x1 ~ x0)))"
    "  & (exists x0 (x1 < x0 & Pb(x0) & x1 ~ x0)) )"
)


def all_words(max_len=3):
    return list(enumerate_data_words(AB, max_len))


@pytest.fixture
def phi_prime():
    return parse_fo(PHI_PRIME_TEXT)


def test_parse_and_free_vars(phi_prime):
    assert free_vars(phi_prime) == frozenset({0})
    assert parse_fo(format_fo(phi_prime)) == phi_prime
    assert max_offset(parse_fo("x1 = x0 + 2")) == 2


def test_parse_checks_letters_against_an_alphabet(phi_prime):
    assert parse_fo(PHI_PRIME_TEXT, AB) == phi_prime
    with pytest.raises(UnknownAtom) as info:
        parse_fo("exists x1 (Pa(x1) & Pz(x1))", AB)
    # told at the predicate's token
    assert (info.value.message, info.value.position) == ("atom 'z' not in the alphabet", 20)
    # without an alphabet any letter is taken
    assert parse_fo("exists x1 (Pz(x1))") == Exists(1, Pred("z", 1))


def test_eval_fo_basics(sigma_word):
    assert eval_fo(sigma_word, {0: 0}, PlusEq(0, 0, 0))
    two = make_data_word("ab", [{0, 1}])
    f = parse_fo("exists x1 (x0 < x1 & x0 ~ x1)")
    assert eval_fo(two, {0: 0}, f)
    with pytest.raises(UnboundVariable):
        eval_fo(two, {}, f)


def test_fo_equivalent_to_ltl_example(phi, phi_prime, sigma_word):
    # the two formulations agree at every position; at position 0 of the
    # worked example both are false
    assert eval_fo(sigma_word, {0: 0}, phi_prime) is False
    for w in all_words():
        for i in range(len(w)):
            assert eval_fo(w, {0: i}, phi_prime) == ltl.eval_ltl(w, i, {}, phi)


def test_chi_displays():
    assert chi(0, 0, 3) == PlusEq(1, 0, 0)
    assert chi(0, 1, 2) == PlusEq(1, 0, 1)
    assert chi(0, -2, 2) == PlusEq(0, 1, 2)
    assert chi(1, 1, 0) == Less(1, 0)  # empty big-conjunction folds away
    m1 = chi(0, 2, 1)
    assert m1 == FoAnd(Less(0, 1), FoNot(PlusEq(1, 0, 1)))


def test_simple_ltl_to_fo2_displays():
    assert simple_ltl_to_fo2(ltl.Atom("a"), 0) == Pred("a", 0)
    assert simple_ltl_to_fo2(ltl.Reg(1), 1, m=0) == Same(0, 1)
    got = simple_ltl_to_fo2(ltl.parse_ltl("store1 X (b & up1)", AB), 0)
    want = Exists(1, FoAnd(PlusEq(1, 0, 1), FoAnd(Pred("b", 1), Same(0, 1))))
    assert got == want


def test_simple_ltl_to_fo2_rejects_nonsimple(phi):
    with pytest.raises(NotSimpleFragment):
        simple_ltl_to_fo2(phi, 0)


def test_fo2_to_simple_ltl_atomic():
    out = fo2_to_simple_ltl(Pred("a", 0), 0)
    for w in all_words(2):
        for i in range(len(w)):
            assert ltl.eval_ltl(w, i, {}, out) == (w.letters[i] == "a")


def test_fo2_to_simple_ltl_rejects_wrong_free():
    with pytest.raises(WrongFreeVariable):
        fo2_to_simple_ltl(Pred("a", 1), 0)


def test_fo2_to_simple_ltl_k0_branch():
    f = parse_fo("exists x1 (x1 = x0 & Pa(x1))")
    out = fo2_to_simple_ltl(f, 0)
    for w in all_words(2):
        for i in range(len(w)):
            assert ltl.eval_ltl(w, i, {}, out) == (w.letters[i] == "a")


def test_fo2_to_simple_ltl_example(phi, phi_prime):
    out = fo2_to_simple_ltl(phi_prime, 0)
    info = ltl.classify(out)
    assert info.is_sentence and info.max_register <= 1
    assert ltl.is_simple_in(out, 0)
    for w in enumerate_data_words(AB, 4):
        for i in range(len(w)):
            assert ltl.eval_ltl(w, i, {}, out) == eval_fo(w, {0: i}, phi_prime), (w, i)


def random_simple_sentence(rng, m=1, max_size=8):
    """Random simple sentences in the depth-m family."""
    blocks = [0]
    for k in range(1, m + 1):
        blocks += [k, -k]
    blocks += [m + 1, -(m + 1)]

    def go(depth, under_freeze):
        choices = ["atom", "bool"]
        if depth > 0:
            choices.append("block")
        if under_freeze:
            choices.append("reg")
        kind = rng.choice(choices)
        if kind == "atom":
            return ltl.Atom(rng.choice(["a", "b"]))
        if kind == "reg":
            return ltl.Reg(1)
        if kind == "block":
            k = rng.choice(blocks)
            body = go(depth - 1, True)
            from datawords.fo import _op_block
            return _op_block(k, m, body)
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            return ltl.Not(go(depth - 1, under_freeze))
        ctor = ltl.And if op == "and" else ltl.Or
        return ctor(go(depth - 1, under_freeze), go(depth - 1, under_freeze))

    while True:
        f = go(3, False)
        if ltl.size(f) <= max_size and ltl.is_simple_in(f, m):
            return f


def test_round_trip_ltl_to_fo(subtests=None):
    rng = random.Random(20240811)
    words = all_words()
    for _ in range(40):
        f = random_simple_sentence(rng)
        for j in (0, 1):
            g = simple_ltl_to_fo2(f, j, m=1)
            assert free_vars(g) <= {j}
            for w in words:
                for i in range(len(w)):
                    assert eval_fo(w, {j: i}, g) == ltl.eval_ltl(w, i, {}, f), (f, j, w, i)


def random_fo2(rng, m=1, depth=2):
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


def test_round_trip_fo_to_ltl():
    rng = random.Random(1187)
    words = all_words()
    for _ in range(30):
        f = random_fo2(rng)
        out = fo2_to_simple_ltl(f, 0)
        m = max_offset(f)
        assert ltl.is_simple_in(out, m)
        for w in words:
            for i in range(len(w)):
                assert ltl.eval_ltl(w, i, {}, out) == eval_fo(w, {0: i}, f), (f, w, i)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 4))
def test_format_parse_round_trip_random(rng, depth):
    psi = _random_fo2(rng, depth=depth)
    assert parse_fo(format_fo(psi)) == psi


# ---------------------------------------------------------------------------
# The recursive translation that the fold of ``fo2_to_simple_ltl`` replaced,
# kept as the reference it is compared against.


def reference_fo2_to_simple_ltl(phi: FoFormula, j: int, m=None) -> ltl.Formula:
    if m is None:
        m = max_offset(phi)
    return _t_back(phi, j, m, {})


def _and2(a: ltl.Formula, b: ltl.Formula) -> ltl.Formula:
    if isinstance(a, ltl.Top):
        return b
    if isinstance(b, ltl.Top):
        return a
    if isinstance(a, ltl.Bottom) or isinstance(b, ltl.Bottom):
        return ltl.BOT
    return ltl.And(a, b)


def _or2(a: ltl.Formula, b: ltl.Formula) -> ltl.Formula:
    if isinstance(a, ltl.Bottom):
        return b
    if isinstance(b, ltl.Bottom):
        return a
    if isinstance(a, ltl.Top) or isinstance(b, ltl.Top):
        return ltl.TOP
    return ltl.Or(a, b)


def _t_back(phi: FoFormula, j: int, m: int, memo) -> ltl.Formula:
    key = (phi, j)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = _t_back_raw(phi, j, m, memo)
    memo[key] = out
    return out


def _t_back_raw(phi: FoFormula, j: int, m: int, memo) -> ltl.Formula:
    t = type(phi)
    if t is FoTop:
        return ltl.TOP
    if t is FoBottom:
        return ltl.BOT
    if t is Pred:
        return ltl.Atom(phi.letter)
    if t is Same:
        return ltl.TOP  # both occurrences are x_j
    if t is Less:
        return ltl.BOT
    if t is PlusEq:
        return ltl.TOP if phi.offset == 0 else ltl.BOT
    if t is FoNot:
        return _not2(_t_back(phi.body, j, m, memo))
    if t is FoAnd:
        return _and2(_t_back(phi.left, j, m, memo), _t_back(phi.right, j, m, memo))
    if t is FoOr:
        return _or2(_t_back(phi.left, j, m, memo), _t_back(phi.right, j, m, memo))
    if t is FoImplies:
        return _or2(_not2(_t_back(phi.left, j, m, memo)), _t_back(phi.right, j, m, memo))
    if t is Forall:
        return _not2(_t_back(Exists(phi.var, FoNot(phi.body)), j, m, memo))
    if t is Exists:
        if phi.var == j:
            # rebinding the free variable: rename the quantifier by swapping
            return _t_back(Exists(1 - j, _swap(phi.body)), j, m, memo)
        return _t_exists(phi.body, j, m, memo)
    raise TypeError(phi)


def _t_exists(body: FoFormula, j: int, m: int, memo) -> ltl.Formula:
    alphas: list[FoFormula] = []
    xis: list[FoFormula] = []
    zetas: list[FoFormula] = []

    def leaf(kind: str, f: FoFormula) -> tuple[str, int]:
        lst = {"a": alphas, "x": xis, "z": zetas}[kind]
        for idx, g in enumerate(lst):
            if g == f:
                return kind, idx
        lst.append(f)
        return kind, len(lst) - 1

    def skeleton(f: FoFormula):
        fv = free_vars(f)
        if type(f) in (Same, Less, PlusEq) and len(fv) == 2:
            return leaf("a", f)
        if fv <= {j}:
            return leaf("x", f)
        if fv <= {1 - j}:
            return leaf("z", f)
        t = type(f)
        if t is FoNot:
            return ("not", skeleton(f.body))
        if t in (FoAnd, FoOr, FoImplies):
            return (t.__name__, skeleton(f.left), skeleton(f.right))
        raise NotTwoVariable(f"cannot sort subformula {f}")

    beta = skeleton(body)

    def instantiate(node, alpha_vals, xi_vals, zeta_vals) -> ltl.Formula:
        if isinstance(node, tuple) and node[0] in ("a", "x", "z"):
            kind, idx = node
            if kind == "a":
                return alpha_vals[idx]
            if kind == "x":
                return xi_vals[idx]
            return zeta_vals[idx]
        if node[0] == "not":
            return _not2(instantiate(node[1], alpha_vals, xi_vals, zeta_vals))
        op = node[0]
        a = instantiate(node[1], alpha_vals, xi_vals, zeta_vals)
        b = instantiate(node[2], alpha_vals, xi_vals, zeta_vals)
        if op == "FoAnd":
            return _and2(a, b)
        if op == "FoOr":
            return _or2(a, b)
        return _or2(_not2(a), b)

    xi_tr = [_t_back(x, j, m, memo) for x in xis]
    zeta_tr = [_t_back(z, 1 - j, m, memo) for z in zetas]

    disjuncts: list[ltl.Formula] = []
    n_xi = len(xis)
    for k in range(-(m + 1), m + 2):
        for b in (True, False):
            alpha_vals = [_alpha_value(a, j, k, m, b) for a in alphas]
            for mask in range(1 << n_xi):
                xi_vals = [ltl.TOP if mask >> i & 1 else ltl.BOT for i in range(n_xi)]
                guard = ltl.big_and(
                    xi_tr[i] if mask >> i & 1 else _not2(xi_tr[i])
                    for i in range(n_xi)
                )
                if isinstance(guard, ltl.Bottom):
                    continue
                reg = ltl.Reg(1) if b else ltl.NReg(1)
                inner = _and2(reg, instantiate(beta, alpha_vals, xi_vals, zeta_tr))
                if isinstance(inner, ltl.Bottom):
                    continue
                disjuncts.append(_and2(guard, _op_block(k, m, inner)))
    return ltl.big_or(disjuncts)


def test_fo2_to_simple_ltl_equals_reference():
    """Byte-identical output on random formulas, with either variable free."""
    rng = random.Random(3011)
    seen = set()
    for _ in range(25):
        for depth in range(1, 5):
            for m in range(3):
                f = random_fo2(rng, m=m, depth=depth)
                for j, g in ((0, f), (1, _swap(f))):
                    key = (format_fo(g), j, m)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert (ltl.format_ltl(fo2_to_simple_ltl(g, j, m))
                            == ltl.format_ltl(reference_fo2_to_simple_ltl(g, j, m))), key
    assert len(seen) > 400
