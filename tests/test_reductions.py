import itertools

import pytest

from datawords import ltl
from datawords.ca import CounterAutomaton, accepts_word, nonempty_finite_incrementing, \
    nonempty_infinite_incrementing, rename_locations, validate_ca
from datawords.errors import PreconditionViolation
from datawords.ltl import eval_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra import accepts, classify_ra, validate
from datawords.ra2ca import build_ca_finite
from datawords.reductions import (
    ca_to_ltl_finite, ca_to_ltl_infinite, ca_to_ura1, hat_alphabet,
    minsky_to_incrementing_fig4, minsky_to_ltl_2reg, minsky_to_ltl_xffp,
    tilde_alphabet, transition_letter, violation_automata,
)
from datawords.words import Alphabet, alphabet, enumerate_data_words, \
    make_data_word, project_string, set_partitions


def projection_map(c: CounterAutomaton) -> dict:
    """The homomorphism from transition letters back to the base alphabet."""
    return {transition_letter(t): (t[1] if t[1] is not None else "")
            for t in c.transitions}


def machine(transitions, accepting, n_counters=1, letters=("a", "b"), init="q0"):
    locs = []
    for t in transitions:
        for q in (t[0], t[4]):
            if q not in locs:
                locs.append(q)
    if init not in locs:
        locs.insert(0, init)
    return CounterAutomaton(Alphabet(tuple(letters)), tuple(locs), init,
                            n_counters, tuple(transitions), frozenset(accepting))


C_INC_DEC = machine([("q0", "a", "inc", 1, "q1"), ("q1", "b", "dec", 1, "q2")], {"q2"})
C_WITH_IFZ = machine([
    ("q0", "a", "inc", 1, "q1"),
    ("q1", "b", "ifz", 1, "q2"),
    ("q2", "a", "dec", 1, "q3"),
], {"q3"})


def hat_words(c, max_len):
    return enumerate_data_words(hat_alphabet(c), max_len)


def language_upto(c, max_len, semantics="incrementing"):
    out = set()
    for n in range(1, max_len + 1):
        for w in itertools.product(c.alphabet.letters, repeat=n):
            if accepts_word(c, w, semantics).is_nonempty:
                out.add(w)
    return out


def projections_of_models(c, phi, max_len):
    h = projection_map(c)
    out = set()
    for w in hat_words(c, max_len):
        if eval_ltl(w, 0, {}, phi):
            out.add(project_string(w, h))
    return out


def test_sentence_language_matches_machine():
    phi = ca_to_ltl_finite(C_INC_DEC)
    got = projections_of_models(C_INC_DEC, phi, 3)
    want = {w for w in language_upto(C_INC_DEC, 3) if len(w) <= 3}
    assert got == want == {("a", "b")}


def test_faulty_decrement_allowed():
    phi = ca_to_ltl_finite(C_INC_DEC)
    t1, t2 = (transition_letter(t) for t in C_INC_DEC.transitions)
    together = make_data_word([t1, t2], [{0, 1}])
    apart = make_data_word([t1, t2], [{0}, {1}])
    assert eval_ltl(together, 0, {}, phi)
    assert eval_ltl(apart, 0, {}, phi)  # the decrement may be faulty


def test_wrong_zero_test_rejected():
    phi = ca_to_ltl_finite(C_WITH_IFZ)
    t1, t2, t3 = (transition_letter(t) for t in C_WITH_IFZ.transitions)
    w = make_data_word([t1, t2, t3], [{0, 2}, {1}])
    assert not eval_ltl(w, 0, {}, phi)  # inc .. ifz .. same-class dec
    # the genuine increment cannot be consumed before the zero test under
    # any class structure, so the machine (and the sentence) are empty
    assert nonempty_finite_incrementing(C_WITH_IFZ).is_empty
    assert not any(eval_ltl(u, 0, {}, phi) for u in hat_words(C_WITH_IFZ, 3))


def test_no_ifz_makes_zero_conjuncts_vacuous():
    phi = ca_to_ltl_finite(C_INC_DEC)
    # satisfiable, and no accidental falsity from empty disjunctions
    assert any(eval_ltl(w, 0, {}, phi) for w in hat_words(C_INC_DEC, 2))


def test_infinite_variant_shape():
    phi = ca_to_ltl_infinite(C_INC_DEC)
    info = ltl.classify(phi)
    assert info.operators <= {"X", "F", "G"}
    assert info.max_register <= 1
    empty_f = machine([("q0", "a", "inc", 1, "q0")], set())
    phi2 = ca_to_ltl_infinite(empty_f)
    # the recurrence conjunct over no accepting transitions is unsatisfiable
    assert not any(eval_ltl(w, 0, {}, phi2) for w in hat_words(empty_f, 2))


def test_sentence_stays_in_xf_fragment():
    phi = ca_to_ltl_finite(C_WITH_IFZ)
    info = ltl.classify(phi)
    assert info.operators <= {"X", "F", "G"}
    assert info.max_register == 1
    assert info.is_sentence


def test_violation_automata_and_dual():
    c = C_WITH_IFZ
    phi = ca_to_ltl_finite(c)
    parts = violation_automata(c)
    assert all(validate(p) == [] for p in parts)
    assert all(classify_ra(p).nondeterministic and classify_ra(p).one_way
               for p in parts)
    ura = ca_to_ura1(c)
    assert validate(ura) == []
    assert classify_ra(ura).universal
    for w in hat_words(c, 3):
        want = eval_ltl(w, 0, {}, phi)
        assert accepts(ura, w) == want, w


def test_ura_agrees_on_two_transition_machine():
    c = C_INC_DEC
    phi = ca_to_ltl_finite(c)
    ura = ca_to_ura1(c)
    for w in hat_words(c, 3):
        assert accepts(ura, w) == eval_ltl(w, 0, {}, phi), w


def test_minsky_xffp_blocks_faulty_decrement():
    c = machine([("q0", "a", "dec", 1, "q1")], {"q1"})
    plain = ca_to_ltl_finite(c)
    strict = minsky_to_ltl_xffp(c)
    t1 = transition_letter(c.transitions[0])
    w = make_data_word([t1], [{0}])
    assert eval_ltl(w, 0, {}, plain)
    assert not eval_ltl(w, 0, {}, strict)
    assert language_upto(c, 2, "minsky") == set()
    assert language_upto(c, 2, "incrementing") == {("a",)}


def test_minsky_xffp_keeps_clean_runs():
    strict = minsky_to_ltl_xffp(C_INC_DEC)
    t1, t2 = (transition_letter(t) for t in C_INC_DEC.transitions)
    assert eval_ltl(make_data_word([t1, t2], [{0, 1}]), 0, {}, strict)
    assert not eval_ltl(make_data_word([t1, t2], [{0}, {1}]), 0, {}, strict)
    c_noinc = machine([("q0", "a", "ifz", 1, "q1")], {"q1"})
    strict2 = minsky_to_ltl_xffp(c_noinc)  # no decrements: conjunct vacuous
    tok = transition_letter(c_noinc.transitions[0])
    assert eval_ltl(make_data_word([tok], [{0}]), 0, {}, strict2)


def test_minsky_projection_exactness():
    """Models of the strict sentence project onto error-free acceptance,
    models of the plain one onto the faulty superset."""
    for c in (C_INC_DEC, C_WITH_IFZ, machine([("q0", "a", "dec", 1, "q1")], {"q1"})):
        plain = projections_of_models(c, ca_to_ltl_finite(c), 3)
        strict = projections_of_models(c, minsky_to_ltl_xffp(c), 3)
        inc_lang = {w for w in language_upto(c, 3, "incrementing") if len(w) <= 3}
        min_lang = {w for w in language_upto(c, 3, "minsky") if len(w) <= 3}
        assert plain == inc_lang
        assert strict == min_lang
        assert strict <= plain


# --- the two-register block encoding ------------------------------------------


C2 = machine([("q0", "a", "inc", 2, "q1"), ("q1", "b", "ifz", 1, "q2")],
             {"q2"}, n_counters=2)


def test_2reg_hand_built_encoding_satisfies():
    psi = minsky_to_ltl_2reg(C2)
    t1, t2 = (transition_letter(t) for t in C2.transitions)
    letters = ["hi1", "lo1", "hi2", "lo2", t1,
               "hi1", "lo1", "hi2", "lo2", t2]
    blocks = [{0, 1, 5, 6}, {2, 3, 8}, {7}, {4}, {9}]
    w = make_data_word(letters, blocks)
    assert eval_ltl(w, 0, {}, psi)


def test_2reg_block_shape_violation():
    psi = minsky_to_ltl_2reg(C2)
    t1, _ = (transition_letter(t) for t in C2.transitions)
    w = make_data_word(["hi1", t1], [{0}, {1}])  # missing the low marks
    assert not eval_ltl(w, 0, {}, psi)


def test_2reg_initial_block_nonzero():
    psi = minsky_to_ltl_2reg(C2)
    t1, t2 = (transition_letter(t) for t in C2.transitions)
    letters = ["hi1", "lo1", "hi2", "lo2", t1,
               "hi1", "lo1", "hi2", "lo2", t2]
    blocks = [{0}, {1, 5, 6}, {2, 3, 8}, {7}, {4}, {9}]  # hi1 not with lo1
    w = make_data_word(letters, blocks)
    assert not eval_ltl(w, 0, {}, psi)


def test_2reg_untouched_counter_cannot_drift():
    psi = minsky_to_ltl_2reg(C2)
    t1, t2 = (transition_letter(t) for t in C2.transitions)
    letters = ["hi1", "lo1", "hi2", "lo2", t1,
               "hi1", "lo1", "hi2", "lo2", t2]
    # counter 1 is untouched, so its marks may not jump to a fresh class
    blocks = [{0, 1}, {2, 3, 8}, {7}, {4}, {9}, {5, 6}]
    w = make_data_word(letters, blocks)
    assert not eval_ltl(w, 0, {}, psi)


def test_2reg_projection_single_block():
    c1 = machine([("q0", "a", "inc", 1, "q1")], {"q1"})
    psi = minsky_to_ltl_2reg(c1)
    sigma = tilde_alphabet(c1)
    h = {x: "" for x in sigma.letters}
    h[transition_letter(c1.transitions[0])] = "a"
    got = set()
    for w in enumerate_data_words(sigma, 3):
        if eval_ltl(w, 0, {}, psi):
            got.add(project_string(w, h))
    assert got == {("a",)}


def test_2reg_fragment():
    psi = minsky_to_ltl_2reg(C2)
    info = ltl.classify(psi)
    assert info.operators <= {"X", "F", "G"}
    assert info.max_register == 2
    assert info.is_sentence


# --- the budget gadget ---------------------------------------------------------


def test_fig4_requires_shape():
    with pytest.raises(PreconditionViolation):
        minsky_to_incrementing_fig4(C_INC_DEC)  # one counter only
    eps = machine([("q0", None, "inc", 1, "q1")], set(), n_counters=2,
                  letters=("s",))
    with pytest.raises(PreconditionViolation):
        minsky_to_incrementing_fig4(eps)


def test_fig4_structure():
    c = machine([("q0", "s", "inc", 1, "q1")], {"q1"}, n_counters=2, letters=("s",))
    chat = minsky_to_incrementing_fig4(c)
    assert validate_ca(chat) == []
    assert chat.n_counters == 5
    assert chat.accepting == frozenset({"acc"})


def test_fig4_accepting_machine_gives_empty_gadget():
    c = machine([("q0", "s", "inc", 1, "q1")], {"q1"}, n_counters=2, letters=("s",))
    chat = minsky_to_incrementing_fig4(c)
    v = nonempty_infinite_incrementing(chat, budget=60_000)
    assert v.is_empty, v


def test_fig4_nonaccepting_machine_gadget_not_empty():
    # the simulated machine loops forever without accepting; the gadget has
    # an accepting infinite run, but its budget grows every round, so no
    # finite certificate of the pumpable kind exists and the honest verdict
    # stops short of claiming emptiness
    c = machine([("q0", "s", "ifz", 1, "q0")], set(), n_counters=2, letters=("s",))
    chat = minsky_to_incrementing_fig4(c)
    v = nonempty_infinite_incrementing(chat, budget=4_000)
    assert not v.is_empty


def dec_ifz_machine(accepting):
    """Counter 1 goes up once, then q1 either decrements it to q2 or finds
    it zero and moves to q3, which a Minsky run never does; q2 and q3 loop
    on a zero test of counter 2, which is never incremented."""
    return machine([("q0", "s", "inc", 1, "q1"), ("q1", "s", "dec", 1, "q2"),
                    ("q1", "s", "ifz", 1, "q3"), ("q2", "s", "ifz", 2, "q2"),
                    ("q3", "s", "ifz", 2, "q3")], accepting, n_counters=2, letters=("s",))


def test_fig4_dec_ifz_pair():
    reaches = dec_ifz_machine({"q2"})
    chat = minsky_to_incrementing_fig4(reaches)
    assert validate_ca(chat) == []
    # the decrement moves the budget back, the zero test only checks
    op = ("op", "q1")
    mid = ("mid", "q1", transition_letter(reaches.transitions[1]))
    assert {t for t in chat.transitions if t[0] in (op, mid)} == {
        (op, None, "dec", 1, mid), (mid, None, "inc", 5, ("sim", "q2")),
        (op, None, "ifz", 1, ("sim", "q3")),
    }
    # the simulated machine accepts, so the gadget has no accepting run
    assert nonempty_infinite_incrementing(chat, budget=60_000).is_empty
    # q3 is never reached, so the gadget runs forever
    assert not nonempty_infinite_incrementing(
        minsky_to_incrementing_fig4(dec_ifz_machine({"q3"})), budget=4_000).is_empty


def test_circle_closure_three_way():
    """Nonemptiness agrees along the loop: machine, sentence, machine again."""
    machines = [
        C_INC_DEC,
        machine([("q0", "a", "inc", 1, "q1"), ("q1", "b", "ifz", 1, "q2")], {"q2"}),
        machine([("q0", "b", "ifz", 1, "q0")], {"q0"}),
        machine([("q0", "a", "inc", 1, "q1")], set()),
    ]
    bounds = [3, 3, 2, 2]
    for c, bound in zip(machines, bounds):
        direct = nonempty_finite_incrementing(c)
        phi = ca_to_ltl_finite(c)
        sat = any(eval_ltl(w, 0, {}, phi) for w in hat_words(c, bound))
        a = ltl_to_ara(phi, hat_alphabet(c))
        ca2 = build_ca_finite(a)
        round_trip = nonempty_finite_incrementing(ca2, budget=2_000_000)
        assert direct.is_nonempty == sat == round_trip.is_nonempty, c.transitions


def _depth(phi) -> int:
    """Nesting depth, counted without recursion."""
    deepest, stack = 0, [(phi, 1)]
    while stack:
        f, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((g, d + 1) for g in ltl.children(f))
    return deepest


def test_running_example_sentence_is_shallow():
    """The back-translation of the running example's machine joins
    thousands of conjuncts and disjuncts; joined as balanced trees they stay
    far below the recursion limit (right-nested, the sentence was 657 deep),
    so the recursive formatter, parser and nnf can handle it."""
    ab = alphabet("a", "b")
    phi = ltl.parse_ltl("G (a -> store1 X ((G (a -> !up1)) & F (b & up1)))", ab)
    c = rename_locations(build_ca_finite(ltl_to_ara(phi, ab)))
    back = ca_to_ltl_finite(c)
    # 6,026 before ra2ca took each choice of a whole map in one step, 9,467
    # before its cores shared their tails, 11,893 before it cut finite
    # machines to what can accept
    assert ltl.size(back) == 4_344
    assert _depth(back) <= 32
    assert ltl.parse_ltl(ltl.format_ltl(back), hat_alphabet(c)) == back
    assert ltl.atoms(ltl.nnf(back)) == ltl.atoms(back)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 1000])
def test_big_and_keeps_the_parts_in_order(n):
    parts = [ltl.Atom(f"p{k}") for k in range(n)]
    phi = ltl.big_and(parts)
    leaves, stack = [], [phi]
    while stack:
        f = stack.pop()
        if type(f) is ltl.And:
            stack += [f.right, f.left]
        else:
            leaves.append(f)
    assert leaves == (parts or [ltl.TOP])
    assert _depth(phi) == max(n - 1, 0).bit_length() + 1
