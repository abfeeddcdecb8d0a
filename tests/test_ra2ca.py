import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from datawords.ca import (
    accepts_word, format_ca, nonempty_finite_incrementing, nonempty_infinite_incrementing,
    validate_ca, verify_lasso,
)
from datawords.corpus import every_a_matched, matching_ra
from datawords.errors import CapExceeded, ClassMismatch
from datawords.ltl import eval_ltl, parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra import (
    BLetter, BUp, RegisterAutomaton, TAnd, TBottom, TMove, TOr, TStore, TTest,
    TTop, accepts, assign_annotations, validate,
)
from datawords.ra2ca import (
    SuccTable, _require_1ara1, build_ca_finite, build_ca_infinite, succ_table,
)
from datawords.words import alphabet, enumerate_data_words, make_data_word

AB = alphabet("a", "b")


def build(delta, n_registers=1, init=None, even=()):
    locs = list(delta)
    rank, height = assign_annotations(locs, delta, even_cycles=even)
    a = RegisterAutomaton(AB, tuple(locs), init or locs[0], n_registers,
                          delta, rank, height)
    assert validate(a) == []
    return a


def aset(letter, at_end, q_eq=(), q_empty=(), counts=()):
    return AbstractSet(letter, at_end, frozenset(q_eq), frozenset(q_empty),
                       make_counts(dict(counts)))


# --- the successor table -----------------------------------------------------

def test_succ_table_move_rows():
    a = build({"q": TMove(True, False, "r"), "r": TTop()})
    assert succ_table(a, "a", False, True, "q") == frozenset(
        {(frozenset(), frozenset({"r"}))})
    assert succ_table(a, "a", False, False, "q") == frozenset(
        {(frozenset({"r"}), frozenset())})
    assert succ_table(a, "a", True, False, "q") == frozenset()
    w = build({"q": TMove(True, True, "r"), "r": TTop()})
    assert succ_table(w, "a", True, False, "q") == frozenset(
        {(frozenset(), frozenset())})


def test_succ_table_and_row():
    a = build({
        "q": TAnd("q1", "q2"),
        "q1": TMove(True, False, "t1"),
        "q2": TMove(True, True, "t2"),
        "t1": TTop(), "t2": TTop(),
    })
    got = succ_table(a, "a", False, False, "q")
    assert got == frozenset({(frozenset({"t1", "t2"}), frozenset())})


def test_succ_table_store_switches_register_row():
    a = build({"q": TStore(1, "x"), "x": TMove(True, False, "t"), "t": TTop()})
    assert succ_table(a, "b", False, False, "q") == frozenset(
        {(frozenset(), frozenset({"t"}))})


def test_succ_table_test_and_or():
    a = build({
        "q": TOr("l", "r"),
        "l": TTest(BLetter("a"), "top", "bot"),
        "r": TTest(BUp(1), "top", "bot"),
        "top": TTop(), "bot": TBottom(),
    })
    assert succ_table(a, "a", False, False, "q") == frozenset(
        {(frozenset(), frozenset())})
    assert succ_table(a, "b", False, False, "q") == frozenset()
    assert succ_table(a, "b", False, True, "q") == frozenset(
        {(frozenset(), frozenset())})


# --- abstract sets and the big-step relation --------------------------------
# A direct implementation of the abstraction that the counter machine encodes
# with unbounded bags; only suitable for small instances.


@dataclass(frozen=True)
class AbstractSet:
    letter: str
    at_end: bool
    q_eq: frozenset      # locations whose register holds the current class
    q_empty: frozenset   # locations with an undefined register
    counts: tuple        # sorted ((location set, multiplicity), ...), all > 0

    def __post_init__(self):
        assert self.q_eq or self.q_empty or self.counts, "the empty set is spelled None"

    def count_map(self) -> dict:
        return dict(self.counts)


def make_counts(mapping: dict) -> tuple:
    return tuple(sorted(((g, c) for g, c in mapping.items() if c > 0),
                        key=lambda t: repr(t[0])))


def _fold_choices(succ: SuccTable, letter: str, at_end: bool, uu: bool, items) -> set:
    """All (kept union, refreshed union) values over per-location choices."""
    acc = {(frozenset(), frozenset())}
    for q in items:
        choices = succ.get(letter, at_end, uu, q)
        if not choices:
            return set()
        acc = {(u1 | y, u2 | z) for (u1, u2) in acc for (y, z) in choices}
    return acc


def _combos(a: RegisterAutomaton, h: AbstractSet):
    """All map combinations: yields (refreshed-union, next empty row, bag)."""
    succ = SuccTable(a)
    eqs = _fold_choices(succ, h.letter, h.at_end, True, h.q_eq)
    emps = _fold_choices(succ, h.letter, h.at_end, False, h.q_empty)
    unit_folds = []
    for g, c in h.counts:
        s = _fold_choices(succ, h.letter, h.at_end, False, g)
        unit_folds.extend([s] * c)
    for eq in eqs:
        for emp in emps:
            for units in itertools.product(*unit_folds):
                u2_all = eq[1] | emp[1]
                bag: Counter = Counter()
                for (uy, uz) in units:
                    u2_all = u2_all | uz
                    if uy:
                        bag[uy] += 1
                if u2_all:
                    bag[u2_all] += 1
                yield emp[0], bag


def big_step(a: RegisterAutomaton, h: AbstractSet, h2: Optional[AbstractSet]) -> bool:
    """Whether h can step to h2 (None meaning all obligations discharged)."""
    _require_1ara1(a)
    for q_empty2, bag in _combos(a, h):
        if h2 is None:
            if not q_empty2 and not bag:
                return True
            continue
        if h2.q_empty != q_empty2:
            continue
        want = Counter(dict(h2.counts))
        if h2.q_eq:
            want[h2.q_eq] += 1
        if bag == want:
            return True
    return False


def big_step_successors(a: RegisterAutomaton, h: AbstractSet, cap: int,
                        letters: Optional[tuple] = None) -> list:
    """All successors with bag values within cap (None stands for the
    discharged end).  Only suitable for small instances."""
    _require_1ara1(a)
    if any(c > cap for _g, c in h.counts):
        raise CapExceeded(f"input bag exceeds cap {cap}")
    letters = letters or a.alphabet.letters
    out = set()
    saw_none = False
    for q_empty2, bag in _combos(a, h):
        if not q_empty2 and not bag:
            saw_none = True
        if any(c > cap for c in bag.values()):
            continue
        for letter in letters:
            for at_end in (False, True):
                counts = make_counts(bag)
                if q_empty2 or counts:
                    out.add(AbstractSet(letter, at_end, frozenset(), q_empty2, counts))
                for g in bag:
                    rest = Counter(bag)
                    rest[g] -= 1
                    out.add(AbstractSet(letter, at_end, g, q_empty2, make_counts(rest)))
    result = sorted(out, key=repr)
    return ([None] if saw_none else []) + result


def embeds(h: Optional[AbstractSet], h2: Optional[AbstractSet]) -> bool:
    """The subsumption order: componentwise containment plus an injective,
    containment-respecting map between the bag units.  The discharged set
    embeds into everything."""
    if h is None:
        return True
    if h2 is None:
        return False
    if (h.letter, h.at_end) != (h2.letter, h2.at_end):
        return False
    if not (h.q_eq <= h2.q_eq and h.q_empty <= h2.q_empty):
        return False
    units = [g for g, c in h.counts for _ in range(c)]
    slots = [g for g, c in h2.counts for _ in range(c)]

    def match(k: int, used: int) -> bool:
        if k == len(units):
            return True
        for j, s in enumerate(slots):
            if not used >> j & 1 and units[k] <= s:
                if match(k + 1, used | 1 << j):
                    return True
        return False

    return match(0, 0)


# --- the big-step relation ---------------------------------------------------

def test_big_step_to_discharge():
    a = build({"q": TTop()})
    h = aset("a", False, q_empty={"q"})
    assert big_step(a, h, None)


def test_big_step_second_bullet():
    a = build({"q": TMove(True, False, "r"), "r": TTop()})
    h = aset("a", False, q_empty={"q"})
    ok = aset("b", False, q_empty={"r"})
    assert big_step(a, h, ok)
    assert not big_step(a, h, None)  # the move produces an obligation
    # third bullet needs a positive count to decrement
    bad = aset("b", False, q_eq={"r"})
    assert not big_step(a, h, bad)


def test_big_step_third_bullet_and_counts():
    # a stored class survives the move in the kept slot
    a = build({"q": TMove(True, False, "r"), "r": TMove(True, False, "s"), "s": TTop()})
    h = aset("a", False, counts=[(frozenset({"q"}), 1)])
    got_second = aset("b", False, counts=[(frozenset({"r"}), 1)])
    got_third = aset("b", False, q_eq=frozenset({"r"}))
    assert big_step(a, h, got_second)
    assert big_step(a, h, got_third)
    assert not big_step(a, h, aset("b", False, q_eq=frozenset({"r"}),
                                   counts=[(frozenset({"r"}), 1)]))


def test_big_step_store_feeds_refreshed_group():
    a = build({"q": TStore(1, "x"), "x": TMove(True, False, "t"), "t": TTop()})
    h = aset("a", False, q_empty={"q"})
    # the successor holds the class of the position just left: a bag unit
    assert big_step(a, h, aset("b", False, counts=[(frozenset({"t"}), 1)]))
    assert big_step(a, h, aset("b", False, q_eq=frozenset({"t"})))
    assert not big_step(a, h, aset("b", False, q_empty={"t"}))


def test_big_step_successors_cap():
    a = build({"q": TMove(True, False, "r"), "r": TTop()})
    h = aset("a", False, counts=[(frozenset({"q"}), 3)])
    with pytest.raises(CapExceeded):
        big_step_successors(a, h, 2)
    succ = big_step_successors(a, h, 3)
    assert all(s is None or isinstance(s, AbstractSet) for s in succ)
    for s in succ:
        assert s is None or big_step(a, h, s)


def test_big_step_successors_match_big_step():
    a = build({
        "q": TOr("m", "t"),
        "m": TMove(True, False, "q2"),
        "t": TTop(),
        "q2": TTop(),
    })
    h = aset("a", False, q_empty={"q"})
    succ = big_step_successors(a, h, 2)
    assert None in succ  # the top branch discharges
    for s in succ:
        assert big_step(a, h, s)
    # and nothing outside the list steps (sample a few non-successors)
    assert not big_step(a, h, aset("a", False, q_empty={"q"}))


def test_all_bottom_yields_no_successors():
    a = build({"q": TBottom()})
    h = aset("a", False, q_empty={"q"})
    assert big_step_successors(a, h, 2) == []


# --- concrete cross-checks (the game side) -----------------------------------

def concrete_big_steps(a, w, state):
    """All obligation sets after following one automaton strategy until it
    moves: the local game resolved by recursion over heights."""
    i, q, v = state
    tf = a.delta[q]
    t = type(tf)
    if t is TTest:
        from datawords.ra import _test_holds
        target = tf.then if _test_holds(tf.guard, w, i, v) else tf.other
        return concrete_big_steps(a, w, (i, target, v))
    if t is TStore:
        v2 = list(v)
        v2[tf.register - 1] = w.class_of[i]
        return concrete_big_steps(a, w, (i, tf.target, tuple(v2)))
    if t is TAnd:
        out = set()
        for p1 in concrete_big_steps(a, w, (i, tf.left, v)):
            for p2 in concrete_big_steps(a, w, (i, tf.right, v)):
                out.add(p1 | p2)
        return out
    if t is TOr:
        return concrete_big_steps(a, w, (i, tf.left, v)) | \
            concrete_big_steps(a, w, (i, tf.right, v))
    if t is TTop:
        return {frozenset()}
    if t is TBottom:
        return set()
    if i + 1 < len(w):
        return {frozenset({(i + 1, tf.target, v)})}
    return {frozenset()} if tf.weak else set()


def concretize_pair(w, i, v, pair):
    y, z = pair
    cls = (w.class_of[i],)
    return frozenset({(i + 1, q, v) for q in y} | {(i + 1, q, cls) for q in z})


def random_1ara1(rng, n_locs=4):
    locs = [f"q{i}" for i in range(n_locs)] + ["acc", "rej"]
    delta = {"acc": TTop(), "rej": TBottom()}
    for k, q in enumerate(locs[:n_locs]):
        lower = locs[k + 1:]
        t1, t2 = rng.choice(lower), rng.choice(lower)
        kind = rng.choice(["test", "store", "or", "and", "move", "move"])
        if kind == "test":
            guard = rng.choice([BLetter("a"), BLetter("b"), BUp(1)])
            delta[q] = TTest(guard, t1, t2)
        elif kind == "store":
            delta[q] = TStore(1, t1)
        elif kind == "or":
            delta[q] = TOr(t1, t2)
        elif kind == "and":
            delta[q] = TAnd(t1, t2)
        else:
            delta[q] = TMove(True, rng.random() < 0.3, t1)
    return build(delta, init="q0")


def test_property_II_exhaustive():
    """succ_table concretizations coincide with game-level big steps."""
    rng = random.Random(3)
    words = list(enumerate_data_words(AB, 3))
    for _ in range(20):
        a = random_1ara1(rng)
        for w in words:
            for i in range(len(w)):
                for v in [(None,)] + [(c,) for c in range(w.num_classes())]:
                    for q in a.locations:
                        uu = v == (w.class_of[i],)
                        table = succ_table(a, w.letters[i], i + 1 == len(w), uu, q)
                        want = {concretize_pair(w, i, v, p) for p in table}
                        got = concrete_big_steps(a, w, (i, q, v))
                        assert got == want, (a.delta, w, i, q, v)


def abstract_set_of(a, w, P, i):
    cls = w.class_of[i]
    q_eq, q_emp = set(), set()
    groups: dict = {}
    for (_j, q, v) in P:
        if v == (None,):
            q_emp.add(q)
        elif v[0] == cls:
            q_eq.add(q)
        else:
            groups.setdefault(v[0], set()).add(q)
    bag = Counter(frozenset(g) for g in groups.values())
    if not (q_eq or q_emp or bag):
        return None
    return AbstractSet(w.letters[i], i + 1 == len(w), frozenset(q_eq),
                       frozenset(q_emp), make_counts(bag))


def set_big_steps(a, w, P):
    """Set-level concrete big steps: per-state choices, unioned."""
    outs = [concrete_big_steps(a, w, p) for p in sorted(P, key=repr)]
    if any(not o for o in outs):
        return set()
    acc = {frozenset()}
    for o in outs:
        acc = {u | p for u in acc for p in o}
    return acc


def test_property_III_abstraction_commutes():
    rng = random.Random(17)
    words = [w for w in enumerate_data_words(AB, 3) if w.num_classes() <= 2]
    for _ in range(8):
        a = random_1ara1(rng, n_locs=3)
        for w in words[:20]:
            i = 0
            concrete_states = [
                (i, q, v) for q in a.locations
                for v in [(None,)] + [(c,) for c in range(w.num_classes())]
            ]
            for size in (1, 2):
                for P in itertools.combinations(concrete_states, size):
                    P = frozenset(P)
                    h = abstract_set_of(a, w, P, i)
                    if h is None:
                        continue
                    nexts = set_big_steps(a, w, P)
                    abstract_nexts = {
                        abstract_set_of(a, w, P2, i + 1) if P2 else None
                        for P2 in nexts
                    }
                    if i + 1 < len(w):
                        candidates = big_step_successors(
                            a, h, cap=3, letters=(w.letters[i + 1],))
                        ee = i + 2 == len(w)
                        filtered = {s for s in candidates
                                    if s is not None and s.at_end == ee}
                        if None in candidates and None in abstract_nexts:
                            filtered.add(None)
                        for h2 in abstract_nexts:
                            assert h2 in (filtered | {None}), (P, h2)
                            assert big_step(a, h, h2)


def test_subsumption_transitive_and_downward_compatible():
    a = build({
        "q": TOr("m", "t"), "m": TMove(True, False, "r"),
        "t": TTop(), "r": TStore(1, "x"), "x": TMove(True, False, "s"),
        "s": TTop(),
    })
    qs = ["q", "m", "r"]
    sets_pool = []
    for eq in ([], ["q"], ["r"]):
        for emp in ([], ["q"], ["q", "r"]):
            for counts in ([], [(frozenset({"q"}), 1)], [(frozenset({"q", "r"}), 2)]):
                if eq or emp or counts:
                    sets_pool.append(aset("a", False, eq, emp, counts))
    sets_pool.append(None)
    for h in sets_pool:
        for h2 in sets_pool:
            for h3 in sets_pool:
                if embeds(h, h2) and embeds(h2, h3):
                    assert embeds(h, h3)
    for h in sets_pool:
        for h2 in sets_pool:
            if h is None or not embeds(h, h2):
                continue
            for h2next in big_step_successors(a, h2, 3):
                matched = any(
                    embeds(hnext, h2next)
                    for hnext in big_step_successors(a, h, 3)
                )
                assert matched, (h, h2, h2next)


# --- the machines ------------------------------------------------------------

@pytest.fixture(scope="module")
def phi_ca(phi_text=None):
    phi = parse_ltl("G (a -> store1 X ((G (a -> !up1)) & F (b & up1)))", AB)
    a = ltl_to_ara(phi, AB)
    return phi, a, build_ca_finite(a)


def test_build_finite_running_example(phi_ca):
    phi, a, ca = phi_ca
    assert validate_ca(ca) == []
    for n in range(1, 5):
        for w in itertools.product("ab", repeat=n):
            assert accepts_word(ca, w).is_nonempty == every_a_matched(w), w


_PRINT_MACHINES = """
from datawords.ca import format_ca, rename_locations
from datawords.ltl import parse_ltl
from datawords.ltl2ra import ltl_to_ara
from datawords.ra import format_ra
from datawords.ra2ca import build_ca_finite, build_ca_infinite
from datawords.words import alphabet

ab = alphabet("a", "b")
a = ltl_to_ara(parse_ltl("G (a -> store1 X ((G (a -> !up1)) & F (b & up1)))", ab), ab)
print(format_ra(a))
for build in (build_ca_finite, build_ca_infinite):
    print(format_ca(rename_locations(build(a))))
"""


def test_machines_independent_of_hash_seed():
    """The translations are deterministic by construction order: string
    hashing, and with it set iteration order, must not leak into them."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _PRINT_MACHINES],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("alphabet: a b") == 3


# sha256 of format_ca on the running example's machines, taken while their
# locations were still the builder's structured program points
_RUNNING_EXAMPLE_TEXT = {
    "finite": "18ff5748db3bdabc7d3b11d2cbcca55825f39ae40a6365b9e39143c36e30ddfa",
    "infinite": "54a8abab8810e1d51884e2b503c999ef3043ebebd230c0c00c1c43919ac53080",
}


@pytest.mark.parametrize("variant, build", [("finite", build_ca_finite),
                                            ("infinite", build_ca_infinite)])
def test_compiled_machines_are_integer_located(phi_ca, variant, build):
    """Program points become 0..n-1 in discovery order, which is the order
    format_ca names locations by, so the machine text did not change."""
    _phi, a, _ca = phi_ca
    c = build(a)
    assert c.locations == tuple(range(len(c.locations)))
    assert c.initial in c.locations and c.accepting <= set(c.locations)
    assert hashlib.sha256(format_ca(c).encode()).hexdigest() == _RUNNING_EXAMPLE_TEXT[variant]
    c = build(matching_ra())
    assert c.locations == tuple(range(len(c.locations)))
    assert validate_ca(c) == []


def test_build_finite_empty_language():
    bot = RegisterAutomaton(AB, ("t",), "t", 0, {"t": TBottom()},
                            {"t": 0}, {"t": 0})
    ca = build_ca_finite(bot)
    assert nonempty_finite_incrementing(ca).is_empty


def test_build_finite_fig3_projection():
    from datawords.words import set_partitions
    mra = matching_ra()
    ca = build_ca_finite(mra)
    assert validate_ca(ca) == []
    for n in range(1, 5):
        parts = list(set_partitions(n))
        for letters in itertools.product("ab", repeat=n):
            proj = any(accepts(mra, make_data_word(letters, blocks))
                       for blocks in parts)
            assert accepts_word(ca, letters).is_nonempty == proj, letters


def test_rejects_wrong_class():
    two_reg = build({"q": TStore(2, "t"), "t": TTop()}, n_registers=2)
    with pytest.raises(ClassMismatch):
        build_ca_finite(two_reg)


def test_build_infinite_running_example(phi_ca):
    phi, a, _ = phi_ca
    ca = build_ca_infinite(a)
    assert validate_ca(ca) == []
    v = nonempty_infinite_incrementing(ca, budget=100_000)
    assert v.is_nonempty
    assert verify_lasso(ca, v.lasso)


def test_build_infinite_empty():
    bot = RegisterAutomaton(AB, ("t",), "t", 0, {"t": TBottom()},
                            {"t": 0}, {"t": 0})
    ca = build_ca_infinite(bot)
    assert nonempty_infinite_incrementing(ca).is_empty


def gfa_automaton():
    """Infinitely many a's, no register use."""
    delta = {
        "qg": TAnd("qf", "qxg"),
        "qxg": TMove(True, True, "qg"),
        "qf": TTest(BLetter("a"), "qt", "qxf"),
        "qxf": TMove(True, False, "qf"),
        "qt": TTop(),
    }
    rank = {"qg": 2, "qxg": 2, "qf": 1, "qxf": 1, "qt": 0}
    height = {"qg": 2, "qxg": 0, "qf": 1, "qxf": 0, "qt": 0}
    a = RegisterAutomaton(AB, tuple(delta), "qg", 1, delta, rank, height)
    assert validate(a) == []
    return a


def test_build_infinite_gfa():
    ca = build_ca_infinite(gfa_automaton())
    v = nonempty_infinite_incrementing(ca, budget=100_000)
    assert v.is_nonempty
    assert verify_lasso(ca, v.lasso)
    # the lasso's cycle must read at least one a (the property demands it)
    cyc_letters = [t[1] for t in v.lasso.cycle if t[1] is not None]
    assert "a" in cyc_letters


def test_circle_small_sentences():
    """Bounded satisfiability and the compiled machine agree on emptiness."""
    texts = [
        "a", "false", "a & b", "X a", "a U b",
        "store1 X up1", "store1 X !up1",
        "a & store1 X (a & up1 & X (a & up1))",
        "(a -> store1 X up1) & (b -> store1 X !up1)",
    ]
    from datawords.ltl import sat_bounded
    for text in texts:
        phi = parse_ltl(text, AB)
        ca = build_ca_finite(ltl_to_ara(phi, AB))
        sat = sat_bounded(phi, AB, 4) is not None
        verdict = nonempty_finite_incrementing(ca, budget=200_000)
        assert verdict.kind in ("nonempty", "empty")
        assert verdict.is_nonempty == sat, text
