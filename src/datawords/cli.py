"""Command-line front end.

Verdict-producing commands exit 0 for false/empty and 1 for true/nonempty;
usage errors (including ``accepts`` without --ra or --ca, or without the
--word or --letters its automaton reads, a missing input file: ``parse fo``
without --fo or --fo-file, ``parse ra`` or ``parse ca`` without a file,
``translate ra2ca`` without --ra and ``export-dot`` without --ra or --ca,
``reduce`` of a machine without transitions, a ``--max-len``,
``--back-max-len``, ``--budget`` or ``--max-states`` below 1, a
``--back-alphabet-cap`` below 0, a malformed ``eval --assign`` item, and
--ltl with --ltl-file or --fo with --fo-file) and inputs nested too deeply
to process exit 2, parse errors (including a letter outside the
alphabet, among them a letter of the ``eval`` word outside the
``alphabet:`` header of its formula text, an empty or repeated alphabet, a
header repeated in a formula or automaton file and an automaton that fails
validation) 3, exhausted budgets 4.  With --json each result is printed as
one JSON object per line.  Parsing and printing take no recursion depth.
Still refused as nested too deeply: a deep LTL formula that is hashed or
compared (the ``ltl_to_ara`` closure, so ``translate ltl2ra`` and stage 2 of
``circle``), and deep input to ``eval_fo``.

Formula text, given inline or in a file, and automaton files follow the
same line rules (``words.parse_lines``): ``#`` starts a comment, blank lines
are dropped, and each header (``alphabet:`` in formula text) may appear
once.  A formula's alphabet is --alphabet if given, else the ``alphabet:``
header of its text, else the letters the formula mentions; only a header
restricts the word of ``eval``, which has no --alphabet.  A first-order
formula has no --alphabet either: its header, if any, restricts its
predicates' letters.  A parse error in formula text is reported at a line
and column of that text.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import fo as fo_mod
from . import ltl as ltl_mod
from .ca import (
    Verdict, accepts_word, ca_to_dot, format_ca, nonempty_finite_incrementing,
    nonempty_infinite_incrementing, nonempty_minsky_bounded, parse_ca,
    rename_locations, validate_ca,
)
from .errors import DatawordsError, ParseError, StateSpaceBudgetExceeded
from .games import game_to_dot
from .ltl2ra import ltl_to_ara
from .nra import abstract_graph_to_dot, nonempty_finite, nonempty_infinite
from .ra import (
    accepts, acceptance_game, classify_ra, format_ra, parse_ra, ra_to_dot, validate,
)
from .ra2ca import _build
from .reductions import (
    ca_to_ltl_finite, ca_to_ltl_infinite, ca_to_ura1, hat_alphabet,
    minsky_to_incrementing_fig4, minsky_to_ltl_2reg, minsky_to_ltl_xffp, tilde_alphabet,
)
from .words import (
    Alphabet, DataWord, format_data_word, parse_alphabet, parse_data_word, parse_lines,
)

EXIT_FALSE = 0
EXIT_TRUE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4


class _Out:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, human: str, **fields) -> None:
        if self.as_json:
            print(json.dumps(fields, sort_keys=True))
        else:
            print(human)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _formula_text(args, kind: str):
    """The text of ``--<kind>`` or of the ``--<kind>-file`` file, read by
    ``parse_lines``, and the alphabet of its ``alphabet:`` header, or None.
    Each formula line keeps its line and column, the other lines left
    blank, so a parse position tells where in the input it is."""
    text = getattr(args, kind)
    if text is None:
        path = getattr(args, f"{kind}_file")
        if path is None:
            raise DatawordsError(f"pass --{kind} or --{kind}-file")
        text = _read(path)
    raw = text.splitlines()
    sigma, body = None, [""] * len(raw)
    for number, head, line in parse_lines(text, ("alphabet:",)):
        if head:
            sigma = parse_alphabet(line.split(":", 1)[1].split())
        else:
            body[number - 1] = " " * raw[number - 1].index(line) + line
    return "\n".join(body), sigma


def _parse_formula(parse, text: str, *rest):
    """``parse(text, *rest)``, a ParseError at a position told instead at
    its line and column in ``text``, from 1; position -1, the end of the
    input, is told as the end of the formula."""
    try:
        return parse(text, *rest)
    except ParseError as exc:
        if exc.position is None:
            raise
        at = len(text.rstrip()) if exc.position < 0 else exc.position
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise ParseError(f"{exc.message} (line {line}, column {column})") from None


def _load_ltl(args, need_alphabet: bool = True):
    """The formula, parsed against its alphabet, and that alphabet (None
    only for a formula without letters when none is needed)."""
    text, sigma = _formula_text(args, "ltl")
    if getattr(args, "alphabet", None):
        sigma = parse_alphabet(args.alphabet.split(","))
    phi = _parse_formula(ltl_mod.parse_ltl, text, sigma)
    if sigma is None:
        letters = tuple(sorted(ltl_mod.atoms(phi)))
        if letters:
            sigma = Alphabet(letters)
        elif need_alphabet:
            raise DatawordsError("cannot infer an alphabet; pass --alphabet")
    return phi, sigma


class _Invalid(ParseError):
    """An automaton that fails validation, named by its first violation."""

    def __init__(self, violations: list):
        super().__init__(f"invalid automaton: {violations[0]}")
        self.violations = violations


def _load(kind: str, path: str):
    """A register (``kind`` "ra") or counter ("ca") automaton file, parsed
    and validated."""
    parse, check = (parse_ra, validate) if kind == "ra" else (parse_ca, validate_ca)
    a = parse(_read(path))
    errs = check(a)
    if errs:
        raise _Invalid(errs)
    return a


def _write(args, out: _Out, text: str, note: str = "", **fields) -> None:
    """``text`` into the ``-o`` file, reported as written with ``note`` and
    ``fields``, or onto stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.emit(f"wrote {args.output}{note}", output=args.output, **fields)
    else:
        print(text, end="")


def _unknown(out: _Out, verdict: Verdict) -> int:
    out.emit(f"unknown: {verdict.reason}", verdict="unknown", reason=verdict.reason)
    return EXIT_BUDGET


def _verdict_exit(value: bool) -> int:
    return EXIT_TRUE if value else EXIT_FALSE


def cmd_parse(args, out: _Out) -> int:
    if args.kind == "ltl":
        phi, _ = _load_ltl(args, need_alphabet=False)
        info = ltl_mod.classify(phi)
        out.emit(f"{ltl_mod.format_ltl(phi)}\n"
                 f"operators: {sorted(info.operators)}  registers: {info.max_register}  "
                 f"sentence: {info.is_sentence}  simple-depth: {info.is_simple_Om}",
                 formula=ltl_mod.format_ltl(phi), operators=sorted(info.operators),
                 max_register=info.max_register, sentence=info.is_sentence,
                 simple_depth=info.is_simple_Om)
    elif args.kind == "fo":
        f = _parse_formula(fo_mod.parse_fo, *_formula_text(args, "fo"))
        out.emit(f"{fo_mod.format_fo(f)}\nfree: {sorted(fo_mod.free_vars(f))}  "
                 f"two-variable: {fo_mod.is_two_variable(f)}",
                 formula=fo_mod.format_fo(f), free=sorted(fo_mod.free_vars(f)),
                 two_variable=fo_mod.is_two_variable(f))
    elif args.file is None:
        raise DatawordsError(f"parse {args.kind} needs a file")
    else:
        try:
            a = _load(args.kind, args.file)
        except _Invalid as exc:
            out.emit("invalid:\n  " + "\n  ".join(exc.violations),
                     valid=False, errors=exc.violations)
            return EXIT_PARSE
        if args.kind == "ra":
            c = classify_ra(a)
            out.emit(f"valid; one-way: {c.one_way}  nondeterministic: {c.nondeterministic}  "
                     f"universal: {c.universal}",
                     valid=True, one_way=c.one_way, nondeterministic=c.nondeterministic,
                     universal=c.universal)
        else:
            out.emit(f"valid; {len(a.locations)} locations, {a.n_counters} counters, "
                     f"{len(a.transitions)} transitions",
                     valid=True, locations=len(a.locations), counters=a.n_counters,
                     transitions=len(a.transitions))
    return 0


def cmd_eval(args, out: _Out) -> int:
    kind = "fo" if args.fo is not None or args.fo_file is not None else "ltl"
    text, sigma = _formula_text(args, kind)
    # a header's alphabet restricts the word; letters inferred from the formula do not
    w = parse_data_word(args.word) if sigma is None else _data_word(args.word, sigma)
    if kind == "fo":
        f = _parse_formula(fo_mod.parse_fo, text, sigma)
        asg = {}
        for item in args.assign or []:
            m = re.fullmatch(r"x(\d+)=(\d+)", item)
            if m is None:
                raise DatawordsError(f"bad --assign item {item!r}, expected xN=position")
            asg[int(m[1])] = int(m[2])
        if args.position is not None:
            asg.setdefault(0, args.position)
        value = fo_mod.eval_fo(w, asg, f)
    else:
        phi = _parse_formula(ltl_mod.parse_ltl, text, sigma)
        value = ltl_mod.eval_ltl(w, args.position or 0, {}, phi)
    out.emit(f"{'true' if value else 'false'}", verdict=value)
    return _verdict_exit(value)


def cmd_sat_bounded(args, out: _Out) -> int:
    phi, sigma = _load_ltl(args)
    found = ltl_mod.sat_bounded(phi, sigma, args.max_len)
    if found is None:
        out.emit(f"unsatisfiable up to length {args.max_len}",
                 satisfiable=False, max_len=args.max_len)
        return EXIT_FALSE
    out.emit(f"satisfiable: {format_data_word(found)}",
             satisfiable=True, witness=format_data_word(found))
    return EXIT_TRUE


def cmd_translate(args, out: _Out) -> int:
    if args.direction == "ltl2ra":
        a = ltl_to_ara(*_load_ltl(args))
        _write(args, out, format_ra(a), f" ({len(a.locations)} locations)",
               locations=len(a.locations))
        return 0
    if args.ra is None:
        raise DatawordsError("translate ra2ca needs --ra")
    ca, stats = _build(_load("ra", args.ra), args.words == "infinite")
    report = [f"{k}={v}" for k, v in sorted(stats.items())]
    _write(args, out, format_ca(ca), "; " + ", ".join(report), **stats)
    if not args.output:
        out.emit("; ".join(report), **stats)
    return 0


def _check_letters(letters, sigma: Alphabet) -> None:
    """Refuse a letter outside an automaton's alphabet, or a formula
    header's, as a parse error."""
    for w in letters:
        if w not in sigma:
            raise ParseError(f"letter {w!r} not in the alphabet")


def _data_word(text: str, sigma: Alphabet) -> DataWord:
    """The data word of ``text``, every letter in ``sigma``."""
    w = parse_data_word(text)
    _check_letters(w.letters, sigma)
    return w


def cmd_accepts(args, out: _Out) -> int:
    if args.ra:
        if args.word is None:
            raise DatawordsError("accepts --ra needs --word")
        a = _load("ra", args.ra)
        w = _data_word(args.word, a.alphabet)
        value = accepts(a, w, max_states=args.max_states)
        out.emit("accepts" if value else "rejects", verdict=value)
        return _verdict_exit(value)
    if not args.ca:
        raise DatawordsError("pass --ra or --ca")
    if args.letters is None:
        raise DatawordsError("accepts --ca needs --letters")
    c = _load("ca", args.ca)
    # one character per letter only while every letter is one character
    if "," in args.letters or any(len(x) > 1 for x in c.alphabet.letters):
        letters = tuple(args.letters.split(","))
    else:
        letters = tuple(args.letters)
    _check_letters(letters, c.alphabet)
    verdict = accepts_word(c, letters, args.semantics, args.budget)
    if verdict.kind == "unknown":
        return _unknown(out, verdict)
    out.emit("accepts" if verdict.is_nonempty else "rejects",
             verdict=verdict.is_nonempty)
    return _verdict_exit(verdict.is_nonempty)


def _certificate_text(verdict: Verdict):
    """A verdict's certificate as text, or None when it carries none."""
    if isinstance(verdict.witness, DataWord):
        return format_data_word(verdict.witness)
    if verdict.witness is not None:
        return " ".join(verdict.witness)
    if verdict.lasso is not None:
        stem = " ".join(t[1] for t in verdict.lasso.stem if t[1] is not None)
        cyc = " ".join(t[1] for t in verdict.lasso.cycle if t[1] is not None)
        return f"({stem})({cyc})^w"
    return None


def cmd_empty(args, out: _Out) -> int:
    if args.kind == "nra":
        a = _load("ra", args.file)
        verdict = (nonempty_infinite if args.words == "infinite" else nonempty_finite)(a)
    else:
        c = _load("ca", args.file)
        if args.semantics == "minsky":
            verdict = nonempty_minsky_bounded(c, args.words, args.budget)
        elif args.words == "finite":
            verdict = nonempty_finite_incrementing(c, args.budget)
        else:
            verdict = nonempty_infinite_incrementing(c, args.budget)
    if verdict.kind == "unknown":
        return _unknown(out, verdict)
    if verdict.is_nonempty:
        text = _certificate_text(verdict)
        out.emit("nonempty" if text is None else f"nonempty: {text}",
                 verdict="nonempty", witness=text or None)
        return EXIT_TRUE
    out.emit("empty", verdict="empty")
    return EXIT_FALSE


def cmd_reduce(args, out: _Out) -> int:
    c = _load("ca", args.ca)
    if args.direction == "ca2ura":
        text = format_ra(ca_to_ura1(c))
    elif args.direction == "minsky2ltl" and args.variant == "fig4":
        text = format_ca(minsky_to_incrementing_fig4(c))
    else:
        if args.direction == "ca2ltl":
            phi = (ca_to_ltl_infinite if args.words == "infinite" else ca_to_ltl_finite)(c)
            sigma = hat_alphabet(c)
        elif args.variant == "xffp":
            sigma, phi = hat_alphabet(c), minsky_to_ltl_xffp(c)
        else:
            sigma, phi = tilde_alphabet(c), minsky_to_ltl_2reg(c)
        text = f"alphabet: {' '.join(sigma.letters)}\n{ltl_mod.format_ltl(phi)}\n"
    _write(args, out, text)
    return 0


def cmd_circle(args, out: _Out) -> int:
    phi, sigma = _load_ltl(args)
    found = ltl_mod.sat_bounded(phi, sigma, args.max_len)
    v1 = found is not None
    out.emit(f"[1] bounded satisfiability (length <= {args.max_len}): "
             f"{'nonempty' if v1 else 'empty'}",
             stage="sat_bounded", nonempty=v1, max_len=args.max_len)

    a = ltl_to_ara(phi, sigma)
    ca, stats = _build(a, infinite=False)
    verdict = nonempty_finite_incrementing(ca, args.budget)
    if verdict.kind == "unknown":
        out.emit(f"[2] counter machine: unknown ({verdict.reason})",
                 stage="counter_machine", verdict="unknown")
        return EXIT_BUDGET
    v2 = verdict.is_nonempty
    # per bounded stage: its answer, its bound, and the length of the
    # machine's witness in its words (the data word the witness's letters
    # spell, the run of transitions that reads them)
    bounded = {1: (v1, args.max_len, len(verdict.witness or ()))}
    out.emit(f"[2] counter machine ({stats['locations']} locations, "
             f"{stats['counters']} counters; {stats['skipped']} ready points or cores "
             f"skipped and {stats['trimmed']} locations dropped that cannot accept): "
             f"{'nonempty' if v2 else 'empty'}",
             stage="counter_machine", nonempty=v2, **stats)

    if len(ca.transitions) <= args.back_alphabet_cap:
        ca = rename_locations(ca)
        phi_back = ca_to_ltl_finite(ca)
        sigma_back = hat_alphabet(ca)
        found_back = ltl_mod.sat_bounded(phi_back, sigma_back, args.back_max_len)
        v3 = found_back is not None
        out.emit(f"[3] back-translated sentence (length <= {args.back_max_len} over "
                 f"{len(sigma_back)} letters): {'nonempty' if v3 else 'empty'}",
                 stage="back_translation", nonempty=v3)
        bounded[3] = (v3, args.back_max_len, len(verdict.run))
    else:
        out.emit(f"[3] back-translated sentence: skipped "
                 f"(alphabet of {len(ca.transitions)} letters exceeds "
                 f"--back-alphabet-cap {args.back_alphabet_cap})",
                 stage="back_translation", skipped=True)
    # a bounded stage without a model contradicts a nonempty machine only
    # when the machine's witness fits its bound
    inconclusive = {k: need for k, (v, bound, need) in bounded.items()
                    if v2 and not v and need > bound}
    agree = all(v == v2 for k, (v, _, _) in bounded.items() if k not in inconclusive)
    note = ", ".join(f"[{k}] needs length {need}" for k, need in inconclusive.items())
    out.emit(f"verdicts agree: {agree}" + (f" (inconclusive: {note})" if note else ""),
             agree=agree, inconclusive=list(inconclusive))
    return _verdict_exit(v2)


def cmd_export_dot(args, out: _Out) -> int:
    if args.ra and args.word:
        a = _load("ra", args.ra)
        game, _ = acceptance_game(a, _data_word(args.word, a.alphabet))
        print(game_to_dot(game))
    elif args.ra and args.abstract:
        print(abstract_graph_to_dot(_load("ra", args.ra)))
    elif args.ra:
        print(ra_to_dot(_load("ra", args.ra)))
    elif args.ca:
        print(ca_to_dot(_load("ca", args.ca)))
    else:
        raise DatawordsError("pass --ra or --ca")
    return 0


def _at_least(low: int, what: str):
    """An argparse type: an integer of at least ``low``, named ``what`` when
    refused."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected {what} of at least {low}, got {text!r}")
        return n
    return parse


_length = _at_least(1, "a length")
_budget = _at_least(1, "a budget")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="datawords",
                                description="logics and automata over data words")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    sub = p.add_subparsers(dest="command", required=True)

    def formula_args(sp, kind: str = "ltl", required: bool = False):
        g = sp.add_mutually_exclusive_group(required=required)
        g.add_argument(f"--{kind}", help="formula text")
        g.add_argument(f"--{kind}-file", help="file with an optional alphabet: header")

    sp = sub.add_parser("parse", help="parse and classify an artifact")
    sp.add_argument("kind", choices=["ltl", "fo", "ra", "ca"])
    formula_args(sp)
    formula_args(sp, "fo")
    sp.add_argument("file", nargs="?", help="automaton file for ra/ca")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("eval", help="evaluate a formula on a data word")
    sp.add_argument("--word", required=True)
    formula_args(sp)
    formula_args(sp, "fo")
    sp.add_argument("--position", type=int, default=None)
    sp.add_argument("--assign", nargs="*", help="x0=3 style bindings (first-order)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sat-bounded", help="brute-force bounded satisfiability")
    formula_args(sp, required=True)
    sp.add_argument("--alphabet", help="comma-separated letters")
    sp.add_argument("--max-len", type=_length, required=True)
    sp.set_defaults(func=cmd_sat_bounded)

    sp = sub.add_parser("translate", help="between formalisms")
    sp.add_argument("direction", choices=["ltl2ra", "ra2ca"])
    formula_args(sp)
    sp.add_argument("--alphabet")
    sp.add_argument("--ra", help="register automaton file (ra2ca)")
    sp.add_argument("--words", choices=["finite", "infinite"], default="finite")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("accepts", help="membership for automata")
    sp.add_argument("--ra")
    sp.add_argument("--ca")
    sp.add_argument("--word", help="data word (register automata)")
    sp.add_argument("--letters", help="plain word (counter automata): comma-separated "
                    "letters, or its characters when it has no comma and every letter "
                    "is one character")
    sp.add_argument("--semantics", choices=["minsky", "incrementing"],
                    default="incrementing")
    sp.add_argument("--budget", type=_budget, default=100_000)
    sp.add_argument("--max-states", type=_budget, default=200_000)
    sp.set_defaults(func=cmd_accepts)

    sp = sub.add_parser("empty", help="language nonemptiness")
    sp.add_argument("kind", choices=["nra", "ca"])
    sp.add_argument("file")
    sp.add_argument("--semantics", choices=["minsky", "incrementing"],
                    default="incrementing")
    sp.add_argument("--words", choices=["finite", "infinite"], default="finite")
    sp.add_argument("--budget", type=_budget, default=100_000)
    sp.set_defaults(func=cmd_empty)

    sp = sub.add_parser("reduce", help="counter machines back into logic")
    sp.add_argument("direction", choices=["ca2ltl", "ca2ura", "minsky2ltl"])
    sp.add_argument("--ca", required=True)
    sp.add_argument("--words", choices=["finite", "infinite"], default="finite")
    sp.add_argument("--variant", choices=["xffp", "2reg", "fig4"], default="xffp")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("circle", help="the loop of translations, cross-checked")
    formula_args(sp, required=True)
    sp.add_argument("--alphabet")
    sp.add_argument("--max-len", type=_length, required=True)
    sp.add_argument("--back-max-len", type=_length, default=3)
    sp.add_argument("--back-alphabet-cap", type=_at_least(0, "a cap"), default=12)
    sp.add_argument("--budget", type=_budget, default=2_000_000)
    sp.set_defaults(func=cmd_circle)

    sp = sub.add_parser("export-dot", help="graphviz output")
    sp.add_argument("--ra")
    sp.add_argument("--ca")
    sp.add_argument("--word", help="with --ra: export the acceptance game")
    sp.add_argument("--abstract", action="store_true",
                    help="with --ra: export the abstract-state graph")
    sp.set_defaults(func=cmd_export_dot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Out(args.json)
    try:
        return args.func(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StateSpaceBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (DatawordsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
