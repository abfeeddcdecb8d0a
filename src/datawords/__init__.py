"""Logics, register automata and counter automata over data words.

The pieces compose into a loop of nonemptiness-preserving translations:
one-register future temporal sentences compile to one-way alternating
register automata, those compile to incrementing counter machines over
letter projections, and counter machines translate back into the logic.
Every step is cross-checked against brute-force enumeration oracles.
"""

from .words import (
    Alphabet, DataWord, alphabet, enumerate_data_words, format_data_word,
    make_data_word, parse_data_word, project_string, same_class,
)
from .ltl import (
    classify, eval_ltl, format_ltl, is_simple_in, nnf, parse_ltl, sat_bounded,
)
from .fo import (
    chi, eval_fo, fo2_to_simple_ltl, format_fo, parse_fo, simple_ltl_to_fo2,
)
from .games import (
    PositionalStrategy, WeakGame, check_signature, check_strategy, signature, solve,
    winners,
)
from .ra import (
    RegisterAutomaton, accepts, acceptance_game, classify_ra, complement, dual,
    format_ra, intersect, parse_ra, product_1nra, union, validate,
)
from .ltl2ra import ltl_to_ara
from .nra import abs_successors, abstract, nonempty_finite, nonempty_infinite
from .ca import (
    CounterAutomaton, Verdict, accepts_word, format_ca, nonempty_finite_incrementing,
    nonempty_infinite_incrementing, nonempty_minsky_bounded, parse_ca, validate_ca,
    verify_lasso,
)
from .ra2ca import build_ca_finite, build_ca_infinite
from .reductions import (
    ca_to_ltl_finite, ca_to_ltl_infinite, ca_to_ura1, minsky_to_incrementing_fig4,
    minsky_to_ltl_2reg, minsky_to_ltl_xffp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
