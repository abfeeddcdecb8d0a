"""Command-line front end.

Verdict-producing commands exit 0 for false/empty and 1 for true/nonempty;
usage errors (including ``accepts`` without --ra or --ca, or without the
--word or --letters its automaton reads, a missing input file: ``parse fo``
without --fo or --fo-file, ``parse ra`` or ``parse ca`` without a file,
``translate ra2ca`` without --ra and ``export-dot`` without --ra or --ca,
``reduce`` of a machine without transitions, a ``--max-len``,
``--back-max-len``, ``--budget`` or ``--max-states`` below 1 and a malformed
``eval --assign`` item) and
inputs nested too deeply to process exit 2, parse errors (including a letter
outside the alphabet, an empty or repeated alphabet and an automaton that
fails validation) 3, exhausted budgets 4.  With --json each result is
printed as one JSON object per line.  Parsing and printing take no recursion
depth.
Still refused as nested too deeply: a deep LTL formula that is hashed or
compared (the ``ltl_to_ara`` closure, so ``translate ltl2ra`` and stage 2 of
``circle``), and deep input to ``eval_fo``.

A formula's alphabet is --alphabet if given, else the ``alphabet:`` header
of its file, else the letters the formula mentions.
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
    validate_ca,
)
from .errors import DatawordsError, ParseError, StateSpaceBudgetExceeded
from .games import game_to_dot
from .ltl2ra import ltl_to_ara
from .nra import nonempty_finite, nonempty_infinite
from .ra import (
    accepts, acceptance_game, classify_ra, format_ra, parse_ra, ra_to_dot, validate,
)
from .ra2ca import _build
from .reductions import (
    ca_to_ltl_finite, ca_to_ltl_infinite, ca_to_ura1, hat_alphabet,
    minsky_to_incrementing_fig4, minsky_to_ltl_2reg, minsky_to_ltl_xffp,
)
from .words import (
    Alphabet, DataWord, format_data_word, parse_alphabet, parse_data_word,
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


def _formula_source(args) -> str:
    if getattr(args, "ltl", None) is not None:
        return args.ltl
    if getattr(args, "ltl_file", None) is None:
        raise DatawordsError("pass --ltl or --ltl-file")
    return _read(args.ltl_file)


def _fo_source(args) -> str:
    if args.fo:
        return args.fo
    if args.fo_file is None:
        raise DatawordsError("pass --fo or --fo-file")
    return _read(args.fo_file)


def _strip_headers(text: str):
    """Formula files may carry an ``alphabet: ...`` header line."""
    sigma = None
    body = []
    for line in text.splitlines():
        if line.strip().startswith("alphabet:"):
            sigma = parse_alphabet(line.split(":", 1)[1].split())
        else:
            body.append(line)
    return "\n".join(body).strip(), sigma


def _load_ltl(args, need_alphabet: bool = True):
    """The formula, parsed against its alphabet, and that alphabet (None
    only for a formula without letters when none is needed)."""
    text, sigma = _strip_headers(_formula_source(args))
    if getattr(args, "alphabet", None):
        sigma = parse_alphabet(args.alphabet.split(","))
    phi = ltl_mod.parse_ltl(text, sigma)
    if sigma is None:
        letters = tuple(sorted(ltl_mod.atoms(phi)))
        if letters:
            sigma = Alphabet(letters)
        elif need_alphabet:
            raise DatawordsError("cannot infer an alphabet; pass --alphabet")
    return phi, sigma


def _reject_violations(errs: list):
    if errs:
        raise ParseError(f"invalid automaton: {errs[0]}")


def _load_ra(path: str):
    """A register automaton file, parsed and validated."""
    a = parse_ra(_read(path))
    _reject_violations(validate(a))
    return a


def _load_ca(path: str):
    """A counter automaton file, parsed and validated."""
    c = parse_ca(_read(path))
    _reject_violations(validate_ca(c))
    return c


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
        text, _ = _strip_headers(_fo_source(args))
        f = fo_mod.parse_fo(text)
        out.emit(f"{fo_mod.format_fo(f)}\nfree: {sorted(fo_mod.free_vars(f))}  "
                 f"two-variable: {fo_mod.is_two_variable(f)}",
                 formula=fo_mod.format_fo(f), free=sorted(fo_mod.free_vars(f)),
                 two_variable=fo_mod.is_two_variable(f))
    elif args.file is None:
        raise DatawordsError(f"parse {args.kind} needs a file")
    elif args.kind == "ra":
        a = parse_ra(_read(args.file))
        errs = validate(a)
        if errs:
            out.emit("invalid:\n  " + "\n  ".join(errs), valid=False, errors=errs)
            return EXIT_PARSE
        c = classify_ra(a)
        out.emit(f"valid; one-way: {c.one_way}  nondeterministic: {c.nondeterministic}  "
                 f"universal: {c.universal}",
                 valid=True, one_way=c.one_way, nondeterministic=c.nondeterministic,
                 universal=c.universal)
    else:
        c = parse_ca(_read(args.file))
        errs = validate_ca(c)
        if errs:
            out.emit("invalid:\n  " + "\n  ".join(errs), valid=False, errors=errs)
            return EXIT_PARSE
        out.emit(f"valid; {len(c.locations)} locations, {c.n_counters} counters, "
                 f"{len(c.transitions)} transitions",
                 valid=True, locations=len(c.locations), counters=c.n_counters,
                 transitions=len(c.transitions))
    return 0


def cmd_eval(args, out: _Out) -> int:
    w = parse_data_word(args.word)
    if args.fo or args.fo_file:
        text, _ = _strip_headers(_fo_source(args))
        f = fo_mod.parse_fo(text)
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
        phi, _ = _load_ltl(args, need_alphabet=False)
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
        text = format_ra(a)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            out.emit(f"wrote {args.output} ({len(a.locations)} locations)",
                     output=args.output, locations=len(a.locations))
        else:
            print(text, end="")
        return 0
    if args.ra is None:
        raise DatawordsError("translate ra2ca needs --ra")
    ca, stats = _build(_load_ra(args.ra), args.words == "infinite")
    text = format_ca(ca)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.emit(f"wrote {args.output}; " +
                 ", ".join(f"{k}={v}" for k, v in sorted(stats.items())),
                 output=args.output, **stats)
    else:
        print(text, end="")
        out.emit("; ".join(f"{k}={v}" for k, v in sorted(stats.items())), **stats)
    return 0


def cmd_accepts(args, out: _Out) -> int:
    if args.ra:
        if args.word is None:
            raise DatawordsError("accepts --ra needs --word")
        a = _load_ra(args.ra)
        w = parse_data_word(args.word)
        value = accepts(a, w, max_states=args.max_states)
        out.emit("accepts" if value else "rejects", verdict=value)
        return _verdict_exit(value)
    if not args.ca:
        raise DatawordsError("pass --ra or --ca")
    if args.letters is None:
        raise DatawordsError("accepts --ca needs --letters")
    c = _load_ca(args.ca)
    # one character per letter only while every letter is one character
    if "," in args.letters or any(len(x) > 1 for x in c.alphabet.letters):
        letters = tuple(args.letters.split(","))
    else:
        letters = tuple(args.letters)
    for w in letters:
        if w not in c.alphabet:
            raise ParseError(f"letter {w!r} not in the alphabet")
    verdict = accepts_word(c, letters, args.semantics, args.budget)
    if verdict.kind == "unknown":
        out.emit(f"unknown: {verdict.reason}", verdict="unknown", reason=verdict.reason)
        return EXIT_BUDGET
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
        a = _load_ra(args.file)
        verdict = (nonempty_infinite if args.words == "infinite" else nonempty_finite)(a)
    else:
        c = _load_ca(args.file)
        if args.semantics == "minsky":
            verdict = nonempty_minsky_bounded(c, args.words, args.budget)
        elif args.words == "finite":
            verdict = nonempty_finite_incrementing(c, args.budget)
        else:
            verdict = nonempty_infinite_incrementing(c, args.budget)
    if verdict.kind == "unknown":
        out.emit(f"unknown: {verdict.reason}", verdict="unknown", reason=verdict.reason)
        return EXIT_BUDGET
    if verdict.is_nonempty:
        text = _certificate_text(verdict)
        out.emit("nonempty" if text is None else f"nonempty: {text}",
                 verdict="nonempty", witness=text or None)
        return EXIT_TRUE
    out.emit("empty", verdict="empty")
    return EXIT_FALSE


def cmd_reduce(args, out: _Out) -> int:
    c = _load_ca(args.ca)
    if args.direction == "ca2ltl":
        phi = (ca_to_ltl_infinite if args.words == "infinite" else ca_to_ltl_finite)(c)
        text = "alphabet: " + " ".join(hat_alphabet(c).letters) + "\n" + \
            ltl_mod.format_ltl(phi) + "\n"
    elif args.direction == "ca2ura":
        text = format_ra(ca_to_ura1(c))
    else:
        if args.variant == "xffp":
            text = "alphabet: " + " ".join(hat_alphabet(c).letters) + "\n" + \
                ltl_mod.format_ltl(minsky_to_ltl_xffp(c)) + "\n"
        elif args.variant == "2reg":
            from .reductions import tilde_alphabet
            text = "alphabet: " + " ".join(tilde_alphabet(c).letters) + "\n" + \
                ltl_mod.format_ltl(minsky_to_ltl_2reg(c)) + "\n"
        else:
            text = format_ca(minsky_to_incrementing_fig4(c))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.emit(f"wrote {args.output}", output=args.output)
    else:
        print(text, end="")
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
        from .ca import rename_locations
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
        a = _load_ra(args.ra)
        w = parse_data_word(args.word)
        game, _ = acceptance_game(a, w)
        print(game_to_dot(game))
    elif args.ra and args.abstract:
        from .nra import abstract_graph_to_dot
        print(abstract_graph_to_dot(_load_ra(args.ra)))
    elif args.ra:
        print(ra_to_dot(_load_ra(args.ra)))
    elif args.ca:
        print(ca_to_dot(_load_ca(args.ca)))
    else:
        raise DatawordsError("pass --ra or --ca")
    return 0


def _at_least_1(what: str):
    """An argparse type: an integer of at least 1, named ``what`` when refused."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = 0
        if n < 1:
            raise argparse.ArgumentTypeError(f"expected {what} of at least 1, got {text!r}")
        return n
    return parse


_length = _at_least_1("a length")
_budget = _at_least_1("a budget")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="datawords",
                                description="logics and automata over data words")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    sub = p.add_subparsers(dest="command", required=True)

    def ltl_args(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--ltl", help="formula text")
        g.add_argument("--ltl-file", help="file with an optional alphabet: header")

    sp = sub.add_parser("parse", help="parse and classify an artifact")
    sp.add_argument("kind", choices=["ltl", "fo", "ra", "ca"])
    sp.add_argument("--ltl")
    sp.add_argument("--ltl-file")
    sp.add_argument("--fo")
    sp.add_argument("--fo-file")
    sp.add_argument("file", nargs="?", help="automaton file for ra/ca")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("eval", help="evaluate a formula on a data word")
    sp.add_argument("--word", required=True)
    sp.add_argument("--ltl")
    sp.add_argument("--ltl-file")
    sp.add_argument("--fo")
    sp.add_argument("--fo-file")
    sp.add_argument("--position", type=int, default=None)
    sp.add_argument("--assign", nargs="*", help="x0=3 style bindings (first-order)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sat-bounded", help="brute-force bounded satisfiability")
    ltl_args(sp)
    sp.add_argument("--alphabet", help="comma-separated letters")
    sp.add_argument("--max-len", type=_length, required=True)
    sp.set_defaults(func=cmd_sat_bounded)

    sp = sub.add_parser("translate", help="between formalisms")
    sp.add_argument("direction", choices=["ltl2ra", "ra2ca"])
    sp.add_argument("--ltl")
    sp.add_argument("--ltl-file")
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
    ltl_args(sp)
    sp.add_argument("--alphabet")
    sp.add_argument("--max-len", type=_length, required=True)
    sp.add_argument("--back-max-len", type=_length, default=3)
    sp.add_argument("--back-alphabet-cap", type=int, default=12)
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
