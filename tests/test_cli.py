import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from datawords.cli import main
from datawords.corpus import ca_fin, ca_inf, matching_ra
from datawords.ca import format_ca, parse_ca
from datawords.ra import accepts, format_ra, parse_ra
from datawords.words import parse_data_word

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_files_match_constructors():
    assert parse_ra((CORPUS / "matching.ra").read_text()) == matching_ra()
    # the .ca format lists no locations, so those come back in first-appearance order
    for name, build in (("ca_fin.ca", ca_fin), ("ca_inf.ca", ca_inf)):
        parsed, want = parse_ca((CORPUS / name).read_text()), build()
        assert parsed.transitions == want.transitions
        assert parsed.initial == want.initial
        assert parsed.accepting == want.accepting
        assert parsed.n_counters == want.n_counters


def test_eval_example_is_false(capsys):
    code, out, _ = run(capsys, "eval", "--word", "a a b ; 0 2 | 1",
                       "--ltl-file", f"{CORPUS}/example22.ltl")
    assert code == 0  # the false verdict maps to exit zero
    assert "false" in out


def test_eval_fo(capsys):
    code, out, _ = run(capsys, "eval", "--word", "a a b ; 0 2 | 1",
                       "--fo-file", f"{CORPUS}/example23.fo", "--position", "0")
    assert code == 0 and "false" in out


def test_accepts_fig3_rejects_example(capsys):
    code, out, _ = run(capsys, "accepts", "--ra", f"{CORPUS}/matching.ra",
                       "--word", "a a b ; 0 2 | 1")
    assert code == 0
    assert "rejects" in out
    code, out, _ = run(capsys, "accepts", "--ra", f"{CORPUS}/matching.ra",
                       "--word", "a b ; 0 1")
    assert code == 1 and "accepts" in out


def test_sat_bounded_cli(capsys):
    code, out, _ = run(capsys, "sat-bounded", "--ltl-file", f"{CORPUS}/example22.ltl",
                       "--max-len", "2")
    assert code == 1
    assert "b ; 0" in out


def test_parse_classify(capsys):
    code, out, _ = run(capsys, "--json", "parse", "ltl",
                       "--ltl-file", f"{CORPUS}/example22.ltl")
    assert code == 0
    data = json.loads(out.strip())
    assert data["max_register"] == 1 and data["sentence"] is True


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "ltl", "--ltl", "a & ")
    assert code == 3
    assert "parse error" in err


def test_formula_file_parse_error_is_told_by_line_and_column(tmp_path, capsys):
    # the position counts the header, the blank line and the indentation
    f = tmp_path / "broken.ltl"
    f.write_text("alphabet: a b\n\nG (a &\n  b |)\n")
    code, out, err = run(capsys, "parse", "ltl", "--ltl-file", str(f))
    assert code == 3 and out == ""
    assert err.strip() == "parse error: unexpected token ')' (line 4, column 6)"


@pytest.mark.parametrize("argv, at", [
    (["parse", "ltl", "--ltl", "G (a &\n  b |)"], "unexpected token ')' (line 2, column 6)"),
    (["parse", "ltl", "--ltl", "G (a & b"], "expected ')', found None (line 1, column 9)"),
    (["parse", "ltl", "--ltl", "a &  $"], "unexpected character '$' (line 1, column 6)"),
    (["eval", "--word", "a ; 0", "--fo", "# Pa\nPa(x0) &\n  Pb(x0) )"],
     "trailing input ')' (line 3, column 10)"),
])
def test_inline_formula_parse_error_is_told_by_line_and_column(capsys, argv, at):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == f"parse error: {at}"


@pytest.mark.parametrize("argv", [
    ["parse", "ltl", "--ltl", "store0 up0"],
    ["translate", "ltl2ra", "--ltl", "store0 up0", "--alphabet", "a"],
    ["circle", "--ltl", "a & store0 X up0", "--alphabet", "a,b", "--max-len", "2"],
])
def test_register_zero_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""  # circle refuses it before stage 1
    assert err.startswith("parse error: register 0 out of range")
    assert "Traceback" not in err


def readme_commands(tmp_path) -> list[tuple[str, list, object]]:
    """The lines of the sh block under "## Command line" in README.md, each
    with its arguments after ``datawords``, its /tmp paths moved under
    tmp_path, and the file of its ``> file`` redirection, or None."""
    section = (CORPUS.parent / "README.md").read_text().split("\n## Command line\n", 1)[1]
    lines = [line for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
             if line.strip()]
    out = []
    for line in lines:
        argv = [arg.replace("/tmp/", f"{tmp_path}/") for arg in shlex.split(line, comments=True)]
        assert argv.pop(0) == "datawords", line
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        out.append((line, argv, target))
    return out


def test_readme_command_line_examples(tmp_path, capsys, monkeypatch):
    """Each line of the sh block under "## Command line" in README.md runs
    in process from the repository root, in order, with its /tmp paths and
    its ``> file`` redirection moved under tmp_path: each gives a verdict or
    succeeds (exit 0 or 1) and prints no traceback."""
    monkeypatch.chdir(CORPUS.parent)
    commands = readme_commands(tmp_path)
    assert len(commands) == 13
    for line, argv, target in commands:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), (line, err)
        assert "Traceback" not in out + err, line
        if target is not None:
            (tmp_path / target).write_text(out)


_RUN_ARGVS = """import json, sys
from datawords.cli import main
for argv in json.loads(sys.argv[1]):
    print("exit", main(argv))
"""


def test_readme_command_line_is_hash_seed_independent(tmp_path):
    """The README's command lines print the same under two hash seeds, each
    run in a child interpreter of its own: no output follows set order."""
    argvs = json.dumps([argv for _line, argv, _target in readme_commands(tmp_path)])
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ARGVS, argvs], cwd=CORPUS.parent,
            env={**os.environ, "PYTHONPATH": str(CORPUS.parent / "src"), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("exit") == 13
    assert outs[0] == outs[1]


def test_empty_ca_cli(capsys):
    code, out, _ = run(capsys, "empty", "ca", f"{CORPUS}/ca_fin.ca",
                       "--semantics", "incrementing", "--words", "finite")
    assert code == 1 and "nonempty" in out
    code, out, _ = run(capsys, "empty", "ca", f"{CORPUS}/ca_inf.ca",
                       "--semantics", "incrementing", "--words", "infinite")
    assert code == 1 and "nonempty" in out


def test_empty_nra_cli(tmp_path, capsys):
    text = """alphabet: a b
registers: 1
init: s
s rank=0 height=1 : if up1 then acc else rej
acc rank=0 height=0 : true
rej rank=0 height=0 : false
"""
    f = tmp_path / "never.ra"
    f.write_text(text)
    code, out, _ = run(capsys, "empty", "nra", str(f))
    assert code == 0 and "empty" in out
    code, out, _ = run(capsys, "--json", "empty", "nra", str(f))
    assert code == 0 and json.loads(out) == {"verdict": "empty"}
    # store the first class, move, and accept iff the second position shares it
    g = tmp_path / "repeat.ra"
    g.write_text("""alphabet: a b
registers: 1
init: s
s rank=1 height=1 : store1 m
m rank=1 height=0 : X c
c rank=1 height=1 : if up1 then acc else rej
acc rank=0 height=0 : true
rej rank=0 height=0 : false
""")
    code, out, _ = run(capsys, "--json", "empty", "nra", str(g))
    data = json.loads(out)
    assert code == 1 and data["verdict"] == "nonempty"
    w = parse_data_word(data["witness"])
    assert len(w) == 2 and w.class_of[0] == w.class_of[1]
    assert accepts(parse_ra(g.read_text()), w)


def test_empty_nra_cli_word_kinds(tmp_path, capsys):
    """``--words`` picks the decider: accepting only at the end is nonempty
    over finite words and empty over infinite ones."""
    f = tmp_path / "end_only.ra"
    f.write_text("""alphabet: a b
registers: 1
init: s
s rank=1 height=2 : or chk mv
chk rank=0 height=1 : if end then acc else rej
mv rank=1 height=0 : X s
acc rank=0 height=0 : true
rej rank=0 height=0 : false
""")
    assert run(capsys, "empty", "nra", str(f), "--words", "finite")[:2] == (1, "nonempty: a ; 0\n")
    assert run(capsys, "empty", "nra", str(f), "--words", "infinite")[:2] == (0, "empty\n")
    with pytest.raises(SystemExit) as exit_:  # the old spelling is gone
        main(["empty", "nra", str(f), "--infinite"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --infinite" in capsys.readouterr().err


def test_translate_ltl2ra_and_accepts(tmp_path, capsys):
    out_ra = tmp_path / "out.ra"
    code, _, _ = run(capsys, "translate", "ltl2ra",
                     "--ltl-file", f"{CORPUS}/example22.ltl",
                     "--alphabet", "a,b", "-o", str(out_ra))
    assert code == 0
    code, out, _ = run(capsys, "accepts", "--ra", str(out_ra),
                       "--word", "a b ; 0 1")
    assert code == 1


def test_translate_ra2ca_with_report(tmp_path, capsys):
    out_ca = tmp_path / "out.ca"
    code, out, _ = run(capsys, "translate", "ra2ca", "--ra", f"{CORPUS}/matching.ra",
                       "--words", "finite", "-o", str(out_ca))
    assert code == 0
    assert "locations=" in out and "counters=" in out
    assert "skipped=3" in out and "trimmed=0" in out
    code, out, _ = run(capsys, "accepts", "--ca", str(out_ca), "--letters", "ab")
    assert code == 1
    code, out, _ = run(capsys, "accepts", "--ca", str(out_ca), "--letters", "a")
    assert code == 0


def test_reduce_cli(tmp_path, capsys):
    ca_file = tmp_path / "m.ca"
    ca_file.write_text("""alphabet: a b
counters: 1
init: q0
accepting: q2
q0 a inc 1 q1
q1 b dec 1 q2
""")
    code, out, _ = run(capsys, "reduce", "ca2ltl", "--ca", str(ca_file))
    assert code == 0 and "q0.a.inc1.q1" in out
    out_ra = tmp_path / "v.ra"
    code, _, _ = run(capsys, "reduce", "ca2ura", "--ca", str(ca_file), "-o", str(out_ra))
    assert code == 0
    from datawords.ra import classify_ra
    assert classify_ra(parse_ra(out_ra.read_text())).universal
    code, out, _ = run(capsys, "reduce", "minsky2ltl", "--ca", str(ca_file),
                       "--variant", "2reg")
    assert code == 0 and "hi1" in out


@pytest.mark.parametrize("argv", [["ca2ltl"], ["ca2ura"], ["minsky2ltl"],
                                  ["minsky2ltl", "--variant", "2reg"]],
                         ids=["ca2ltl", "ca2ura", "minsky2ltl", "minsky2ltl-2reg"])
def test_reduce_refuses_a_machine_without_transitions(tmp_path, capsys, argv):
    # the run encoding of such a machine has no letters: a usage error,
    # not a traceback that exits 1 like a nonempty verdict
    ca_file = tmp_path / "bare.ca"
    ca_file.write_text("alphabet: a\ncounters: 1\ninit: q0\naccepting: q0\n")
    code, out, err = run(capsys, "reduce", *argv[:1], "--ca", str(ca_file), *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: the machine has no transitions, so its run encoding " \
        "would have an empty alphabet\n"


def test_reduce_fig4_cli(tmp_path, capsys):
    ca_file = tmp_path / "d.ca"
    ca_file.write_text("""alphabet: s
counters: 2
init: q0
accepting: q1
q0 s inc 1 q1
""")
    code, out, _ = run(capsys, "reduce", "minsky2ltl", "--ca", str(ca_file),
                       "--variant", "fig4")
    assert code == 0 and "counters: 5" in out


def test_circle_cli(capsys):
    code, out, _ = run(capsys, "circle", "--ltl", "a & store1 X up1",
                       "--alphabet", "a,b", "--max-len", "3")
    assert code == 1
    assert "verdicts agree: True" in out
    code, out, _ = run(capsys, "circle", "--ltl", "a & !a",
                       "--alphabet", "a,b", "--max-len", "2")
    assert code == 0
    assert "verdicts agree: True" in out


@pytest.mark.parametrize("text, max_len, back_max_len, note", [
    ("a & X b", 1, 2, "[1] needs length 2, [3] needs length 6"),
    ("a & X b", 3, 3, "[3] needs length 6"),
    ("a & X b", 3, 4, "[3] needs length 6"),
    ("a & store1 X up1", 3, 2, "[3] needs length 8"),
])
def test_circle_bounded_stage_below_the_witness_is_inconclusive(
        capsys, text, max_len, back_max_len, note):
    """A bounded stage without a model contradicts a nonempty machine only
    when the machine's witness fits its bound: the witness's letters for
    stage 1, the transitions of its run for stage 3."""
    args = ["circle", "--ltl", text, "--alphabet", "a,b", "--max-len", str(max_len),
            "--back-alphabet-cap", "60", "--back-max-len", str(back_max_len)]
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert out.splitlines()[-1] == f"verdicts agree: True (inconclusive: {note})"


def test_circle_json_lists_the_inconclusive_stages(capsys):
    code, out, _ = run(capsys, "--json", "circle", "--ltl", "a & X b", "--alphabet", "a,b",
                       "--max-len", "1", "--back-alphabet-cap", "60", "--back-max-len", "2")
    assert code == 1
    assert json.loads(out.splitlines()[-1]) == {"agree": True, "inconclusive": [1, 3]}
    code, out, _ = run(capsys, "--json", "circle", "--ltl", "a & store1 X up1",
                       "--alphabet", "a,b", "--max-len", "3")
    assert json.loads(out.splitlines()[-1]) == {"agree": True, "inconclusive": []}


def test_circle_bounded_model_against_an_empty_machine_disagrees(capsys, monkeypatch):
    from datawords import ltl
    monkeypatch.setattr(ltl, "sat_bounded", lambda phi, sigma, n: parse_data_word("a ; 0"))
    code, out, _ = run(capsys, "circle", "--ltl", "a & !a", "--alphabet", "a,b",
                       "--max-len", "2")
    assert code == 0  # stage 2's verdict
    assert out.splitlines()[-1] == "verdicts agree: False"


def test_circle_json_reports_the_dropped_locations(capsys):
    code, out, _ = run(capsys, "--json", "circle", "--ltl", "a & store1 X up1",
                       "--alphabet", "a,b", "--max-len", "3")
    assert code == 1
    machine = [json.loads(line) for line in out.splitlines()][1]
    assert machine["stage"] == "counter_machine"
    # the usefulness pass skips one ready point or core here, and the
    # backward pass drops nothing; before the usefulness pass it dropped 10
    # locations.  40 locations, 5 of them trimmed, before ra2ca took each
    # choice of a whole map in one step; 47 before its cores shared their
    # tails
    assert (machine["locations"], machine["skipped"], machine["trimmed"]) == (32, 1, 0)
    # an empty language leaves the canonical empty machine
    code, out, _ = run(capsys, "--json", "circle", "--ltl", "a & !a",
                       "--alphabet", "a,b", "--max-len", "2")
    assert code == 0
    machine = [json.loads(line) for line in out.splitlines()][1]
    assert (machine["locations"], machine["transitions"], machine["counters"]) == (1, 2, 1)
    # the usefulness pass skips both cores, so only the initial ready point
    # is emitted; before it, the backward pass dropped 7 locations
    assert (machine["skipped"], machine["trimmed"]) == (2, 1)


def test_letter_outside_alphabet_is_a_parse_error(capsys):
    code, out, err = run(capsys, "sat-bounded", "--ltl", "a & c",
                         "--alphabet", "a,b", "--max-len", "2")
    assert code == 3 and "not in the alphabet" in err
    code, out, err = run(capsys, "circle", "--ltl", "a & c",
                         "--alphabet", "a,b", "--max-len", "2")
    assert code == 3 and "not in the alphabet" in err
    assert out == ""  # refused before stage 1


def test_eval_word_outside_a_declared_alphabet_is_a_parse_error(tmp_path, capsys):
    ltl = tmp_path / "fa.ltl"
    ltl.write_text("alphabet: a b\nF a\n")
    fo = tmp_path / "some-a.fo"
    fo.write_text("alphabet: a b\nexists x1 (Pa(x1))\n")
    for formula in (["--ltl-file", str(ltl)], ["--ltl", "alphabet: a b\nF a"],
                    ["--fo-file", str(fo)]):
        assert run(capsys, "eval", *formula, "--word", "z ; 0") == \
            (3, "", "parse error: letter 'z' not in the alphabet\n"), formula
        assert run(capsys, "eval", *formula, "--word", "b a ; 0 1") == (1, "true\n", ""), formula
    # without a header the formula's letters do not restrict the word
    assert run(capsys, "eval", "--ltl", "F a", "--word", "z ; 0") == (0, "false\n", "")


def test_fo_header_restricts_the_formula_letters(tmp_path, capsys):
    fo = tmp_path / "some-z.fo"
    fo.write_text("alphabet: a b\n\nexists x1 (Pz(x1))\n")
    refused = (3, "", "parse error: atom 'z' not in the alphabet (line 3, column 12)\n")
    for formula in (["--fo", "alphabet: a b\n\nexists x1 (Pz(x1))"], ["--fo-file", str(fo)]):
        assert run(capsys, "eval", *formula, "--word", "a ; 0") == refused, formula
        assert run(capsys, "parse", "fo", *formula) == refused, formula
    # without a header the letter is taken, as in LTL
    assert run(capsys, "eval", "--fo", "exists x1 (Pz(x1))", "--word", "a ; 0") == \
        (0, "false\n", "")


def test_alphabet_header_is_used(tmp_path, capsys):
    f = tmp_path / "ga.ltl"
    f.write_text("alphabet: a b\nG a\n")
    code, out_plain, _ = run(capsys, "translate", "ltl2ra", "--ltl-file", str(f))
    assert code == 0
    assert out_plain.startswith("alphabet: a b\n")
    # --alphabet wins over the header
    code, out, _ = run(capsys, "translate", "ltl2ra", "--ltl-file", str(f),
                       "--alphabet", "a,b,c")
    assert code == 0 and out.startswith("alphabet: a b c\n")
    # formula files take comments and blank lines as automaton files do
    g = tmp_path / "commented.ltl"
    g.write_text("# always a\nalphabet: a b  # the letters\n\nG a  # the formula\n")
    assert run(capsys, "translate", "ltl2ra", "--ltl-file", str(g)) == (0, out_plain, "")
    fo = tmp_path / "commented.fo"
    fo.write_text("# a first-order formula\nalphabet: a b\n\nexists x1 (Pa(x1))  # some a\n")
    assert run(capsys, "parse", "fo", "--fo-file", str(fo)) == \
        (0, "exists x1 (Pa(x1))\nfree: []  two-variable: True\n", "")


def test_deep_nesting_is_a_usage_error():
    # the closure of ltl_to_ara still hashes its formulas
    proc = subprocess.run(
        [sys.executable, "-m", "datawords", "translate", "ltl2ra",
         "--ltl", "X " * 1000 + "a", "--alphabet", "a"],
        env={**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == "error: input nested too deeply"


def test_deep_sat_bounded_with_alphabet(capsys):
    # with the alphabet given the formula is never hashed, and bounded
    # satisfiability labels it without recursion
    code, out, err = run(capsys, "sat-bounded", "--ltl", "!" * 3001 + "a",
                         "--alphabet", "a,b", "--max-len", "2")
    assert (code, out, err) == (1, "satisfiable: b ; 0\n", "")


def test_deep_formulas_without_an_alphabet(capsys):
    # the letters, the classification and the evaluation hash no formula
    deep = "!" * 3001 + "a"
    code, out, err = run(capsys, "eval", "--ltl", deep, "--word", "b ; 0")
    assert (code, out, err) == (1, "true\n", "")
    code, out, err = run(capsys, "parse", "ltl", "--ltl", "X " * 3000 + "store1 up1")
    assert (code, err) == (0, "")
    assert out.endswith("\noperators: ['X']  registers: 1  sentence: True  simple-depth: None\n")
    code, out, err = run(capsys, "sat-bounded", "--ltl", deep, "--max-len", "2")
    assert (code, out, err) == (0, "unsatisfiable up to length 2\n", "")


def test_deep_fo_negation_chain_parses(capsys):
    # the FO parser, printer and variable walkers take no recursion depth
    code, out, err = run(capsys, "parse", "fo", "--fo", "! " * 3000 + "Pa(x0)")
    assert code == 0 and err == ""
    assert out == "!(" * 3000 + "Pa(x0)" + ")" * 3000 + "\nfree: [0]  two-variable: True\n"


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "--ra", f"{CORPUS}/matching.ra")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "export-dot", "--ra", f"{CORPUS}/matching.ra",
                       "--word", "a a b ; 0 2 | 1")
    assert code == 0 and "box" in out
    code, out, _ = run(capsys, "export-dot", "--ca", f"{CORPUS}/ca_fin.ca")
    assert code == 0 and out.startswith("digraph")


def test_json_output_deterministic(capsys):
    args = ["--json", "empty", "ca", f"{CORPUS}/ca_fin.ca"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    json.loads(out1.strip())


def test_python_m_datawords():
    proc = subprocess.run([sys.executable, "-m", "datawords", "--help"],
                          env={**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: datawords" in proc.stdout


def test_budget_exit_code(tmp_path, capsys):
    # q1 is reachable but for counter 2, which a Minsky run cannot decrement
    ca_file = tmp_path / "loop.ca"
    ca_file.write_text("""alphabet: a b
counters: 2
init: q0
accepting: q1
q0 a inc 1 q0
q0 b dec 2 q1
""")
    code, out, _ = run(capsys, "empty", "ca", str(ca_file), "--semantics",
                       "minsky", "--budget", "50")
    assert code == 4
    assert "unknown" in out and "budget" in out


def test_minsky_infinite_exhausted_exit_code(tmp_path, capsys):
    # q1 accepts, but the dec back to q0 never fires in a Minsky run
    ca_file = tmp_path / "stuck.ca"
    ca_file.write_text("""alphabet: a b
counters: 1
init: q0
accepting: q1
q0 a ifz 1 q1
q1 b dec 1 q0
""")
    argv = ["empty", "ca", str(ca_file), "--semantics", "minsky", "--words", "infinite"]
    assert run(capsys, *argv) == (0, "empty\n", "")
    code, out, _ = run(capsys, "--json", *argv)
    assert (code, json.loads(out)) == (0, {"verdict": "empty"})


def test_buchi_refutation_budget_exit_code(capsys):
    # ca_inf is nonempty, but no lasso shows within ten states and the tree
    # refutation spends its ten steps first
    argv = ["empty", "ca", f"{CORPUS}/ca_inf.ca", "--words", "infinite", "--budget", "10"]
    assert run(capsys, *argv) == (4, "unknown: refutation budget of 10 spent\n", "")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, json.loads(out), err) == \
        (4, {"verdict": "unknown", "reason": "refutation budget of 10 spent"}, "")


def test_export_abstract_graph(tmp_path, capsys):
    text = """alphabet: a b
registers: 1
init: s
s rank=1 height=2 : or c m
c rank=1 height=1 : if up1 then acc else rej
m rank=1 height=0 : X s
acc rank=0 height=0 : true
rej rank=0 height=0 : false
"""
    f = tmp_path / "x.ra"
    f.write_text(text)
    code, out, _ = run(capsys, "export-dot", "--ra", str(f), "--abstract")
    assert code == 0 and out.startswith("digraph")


DOT_ATTRS = r'(?: \[\w+="(?:[^"\\\n]|\\.)*"(?: \w+="(?:[^"\\\n]|\\.)*")*\])?'
DOT_LINE = re.compile(rf"  n\d+(?: -> n\d+)?{DOT_ATTRS};")


def dot_labels(text: str) -> list[str]:
    """The labels of a DOT graph, unescaped, once every line of it is a
    quoted node or edge statement."""
    head, *body, tail = text.rstrip("\n").split("\n")
    assert re.fullmatch(r"digraph \w+ \{", head) and tail == "}", text
    for line in body:
        assert DOT_LINE.fullmatch(line), line
    return [re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], label)
            for label in re.findall(r'label="((?:[^"\\]|\\.)*)"', text)]


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    name = 'q"0\\'
    ra_file, ca_file = tmp_path / "q.ra", tmp_path / "q.ca"
    ra_file.write_text(f"""alphabet: a b
registers: 1
init: {name}
{name} rank=1 height=1 : store1 m
m rank=1 height=0 : X {name}
""")
    ca_file.write_text(f"alphabet: a\ncounters: 1\ninit: {name}\naccepting: {name}\n"
                       f"{name} a inc 1 {name}\n")
    exports = {("--ra", str(ra_file)): f"{name}\nstore1 m",
               ("--ra", str(ra_file), "--abstract"): f"a {name} [-]",
               ("--ra", str(ra_file), "--word", "a b ; 0 | 1"): f"(0, {name!r}, (None,))\nrank 1",
               ("--ca", str(ca_file)): name}
    for argv, label in exports.items():
        code, out, _ = run(capsys, "export-dot", *argv)
        assert code == 0 and label in dot_labels(out), (argv, out)


MISSING_TARGET_RA = """alphabet: a b
registers: 1
init: q1
q1 rank=1 height=1 : store1 q9
"""
REGISTER_2_RA = """alphabet: a b
registers: 1
init: q1
q1 rank=1 height=1 : store2 q2
q2 rank=1 height=0 : true
"""
COUNTER_3_CA = """alphabet: a b
counters: 1
init: q0
accepting: q0
q0 a inc 3 q0
"""


@pytest.fixture
def malformed(tmp_path, monkeypatch):
    """Run in a directory holding the malformed automaton files."""
    for name, text in (("missing.ra", MISSING_TARGET_RA), ("reg.ra", REGISTER_2_RA),
                       ("ctr.ca", COUNTER_3_CA)):
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, violation", [
    (["accepts", "--ra", "missing.ra", "--word", "a ; 0"], "'q1': target 'q9' missing"),
    (["accepts", "--ra", "reg.ra", "--word", "a ; 0"], "'q1': register 2 out of range"),
    (["accepts", "--ca", "ctr.ca", "--letters", "a"], "counter 3 out of range"),
])
def test_accepts_refuses_an_invalid_automaton(malformed, capsys, argv, violation):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == f"parse error: invalid automaton: {violation}"


@pytest.mark.parametrize("argv, violation", [
    (["empty", "nra", "missing.ra"], "'q1': target 'q9' missing"),
    (["empty", "nra", "reg.ra"], "'q1': register 2 out of range"),
    (["empty", "ca", "ctr.ca"], "counter 3 out of range"),
    (["empty", "ca", "ctr.ca", "--words", "infinite"], "counter 3 out of range"),
])
def test_empty_refuses_an_invalid_automaton(malformed, capsys, argv, violation):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == f"parse error: invalid automaton: {violation}"


@pytest.mark.parametrize("argv, violation", [
    (["export-dot", "--ra", "missing.ra", "--word", "a ; 0"], "'q1': target 'q9' missing"),
    (["export-dot", "--ra", "reg.ra", "--word", "a ; 0"], "'q1': register 2 out of range"),
    (["export-dot", "--ra", "missing.ra", "--abstract"], "'q1': target 'q9' missing"),
    (["export-dot", "--ca", "ctr.ca"], "counter 3 out of range"),
])
def test_export_dot_refuses_an_invalid_automaton(malformed, capsys, argv, violation):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == f"parse error: invalid automaton: {violation}"


def test_bad_alphabet_or_count_is_a_parse_error(tmp_path, monkeypatch, capsys):
    code, _, err = run(capsys, "sat-bounded", "--ltl", "a", "--alphabet", "a,a",
                       "--max-len", "1")
    assert code == 3 and err.strip() == "parse error: letter 'a' repeated in the alphabet"
    code, _, err = run(capsys, "sat-bounded", "--ltl", "a", "--alphabet", "a,",
                       "--max-len", "1")
    assert code == 3 and err.strip() == "parse error: empty letter in the alphabet"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.ltl").write_text("alphabet: a a\nG a\n")
    (tmp_path / "none.ltl").write_text("alphabet:\nG a\n")
    (tmp_path / "twice.ltl").write_text("alphabet: a b\nG a\nalphabet: a\n")
    (tmp_path / "twice.fo").write_text("alphabet: a\nalphabet: a b\nPa(x0)\n")
    (tmp_path / "dup.ra").write_text(REGISTER_2_RA.replace("a b", "b b"))
    (tmp_path / "dup.ca").write_text(COUNTER_3_CA.replace("a b", "a a"))
    (tmp_path / "count.ca").write_text(COUNTER_3_CA.replace("counters: 1", "counters: x"))
    for argv, message in (
            (["sat-bounded", "--ltl-file", "dup.ltl", "--max-len", "1"], "letter 'a' repeated"),
            (["sat-bounded", "--ltl-file", "none.ltl", "--max-len", "1"], "empty alphabet"),
            (["empty", "nra", "dup.ra"], "letter 'b' repeated"),
            (["empty", "ca", "dup.ca"], "letter 'a' repeated"),
            (["empty", "ca", "count.ca"], "bad count in 'counters: x'"),
            (["parse", "ltl", "--ltl-file", "twice.ltl"], "repeated header 'alphabet:'"),
            (["sat-bounded", "--ltl-file", "twice.ltl", "--max-len", "1"],
             "repeated header 'alphabet:'"),
            (["parse", "fo", "--fo-file", "twice.fo"], "repeated header 'alphabet:'"),
            (["eval", "--word", "a ; 0", "--fo-file", "twice.fo"], "repeated header 'alphabet:'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith(f"parse error: {message}"), err


RA_HEAD = "alphabet: a b\nregisters: 1\ninit: q0\n"
RA_LEAVES = "q1 rank=0 height=0 : true\nq2 rank=0 height=0 : false\n"
CA_HEAD = "alphabet: a\ncounters: 1\ninit: p\naccepting: q\n"


@pytest.mark.parametrize("kind, text, message", [
    # ra.parse_ra
    ("ra", RA_HEAD + "q0 rank=0 height=1 :\n", "missing transition formula"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : if a then q1\n", "malformed test: 'if a then q1'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : store1 q1 q2\n", "malformed store: 'store1 q1 q2'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : and q1\n", "malformed and: 'and q1'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : or q1 q2 q1\n", "malformed or: 'or q1 q2 q1'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : wXp q1 q2\n", "malformed move: 'wXp q1 q2'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : jump q1\n", "unknown transition formula 'jump q1'"),
    ("ra", RA_HEAD + "q0 rank=x height=1 : true\n", "bad location line 'q0 rank=x height=1 : true'"),
    ("ra", "alphabet: a\ninit: q0\nq0 rank=0 height=0 : true\n",
     "missing alphabet:, registers: or init: header"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : or q1 q2\n" + RA_LEAVES + "q1 rank=0 height=0 : false\n",
     "location 'q1' defined twice"),
    ("ra", RA_HEAD + "init: q1\nq0 rank=0 height=1 : or q1 q2\n" + RA_LEAVES,
     "repeated header 'init:'"),
    # ra.validate
    ("ra", RA_HEAD.replace("q0", "q9") + "q0 rank=0 height=0 : true\n",
     "initial location 'q9' missing"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : if c then q1 else q2\n" + RA_LEAVES,
     "'q0': unknown letter 'c'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : if up2 then q1 else q2\n" + RA_LEAVES,
     "'q0': register 2 out of range"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : store3 q1\n" + RA_LEAVES,
     "'q0': register 3 out of range"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : or q1 q3\n" + RA_LEAVES, "'q0': target 'q3' missing"),
    ("ra", RA_HEAD + "q0 rank=0 height=0 : X q3\nq3 rank=1 height=0 : true\n",
     "rank increases along 'q0' -> 'q3'"),
    ("ra", RA_HEAD + "q0 rank=0 height=1 : and q1 q3\nq3 rank=0 height=1 : true\n" + RA_LEAVES,
     "height fails to drop along 'q0' -> 'q3'"),
    # ca.parse_ca
    ("ca", CA_HEAD + "p a inc 1\n", "bad transition line 'p a inc 1'"),
    ("ca", CA_HEAD + "p a inc one q\n", "bad counter index in 'p a inc one q'"),
    ("ca", "alphabet: a\ninit: p\np a inc 1 q\n", "missing alphabet:, counters: or init: header"),
    ("ca", CA_HEAD + "accepting: p\np a inc 1 q\n", "repeated header 'accepting:'"),
    ("ca", CA_HEAD + "counters: 2\np a inc 1 q\n", "repeated header 'counters:'"),
    # ca.validate_ca
    ("ca", CA_HEAD + "p b inc 1 q\n", "unknown letter 'b'"),
    ("ca", CA_HEAD + "p a jmp 1 q\n", "unknown instruction 'jmp'"),
    ("ca", CA_HEAD + "p a inc 2 q\n", "counter 2 out of range"),
    ("ca", CA_HEAD + "p eps inc 1 q\n", "silent transition enters accepting location 'q'"),
])
def test_malformed_automaton_files_are_parse_errors(tmp_path, capsys, kind, text, message):
    """``parse`` names the first syntax error, or lists the violations;
    ``accepts`` names the first either way.  Both exit 3."""
    f = tmp_path / f"bad.{kind}"
    f.write_text(text)
    code, out, err = run(capsys, "parse", kind, str(f))
    assert code == 3
    assert err.strip() == f"parse error: {message}" or (err, out) == ("", f"invalid:\n  {message}\n")
    word = ["--word", "a ; 0"] if kind == "ra" else ["--letters", "a"]
    code, out, err = run(capsys, "accepts", f"--{kind}", str(f), *word)
    assert code == 3 and out == ""
    assert err.strip() in (f"parse error: {message}", f"parse error: invalid automaton: {message}")


@pytest.mark.parametrize("argv, message", [
    (["accepts", "--ca", f"{CORPUS}/ca_fin.ca"], "accepts --ca needs --letters"),
    (["accepts", "--ra", f"{CORPUS}/matching.ra"], "accepts --ra needs --word"),
    (["accepts"], "pass --ra or --ca"),
])
def test_accepts_misuse_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["parse", "fo"], "pass --fo or --fo-file"),
    (["parse", "ra"], "parse ra needs a file"),
    (["parse", "ca"], "parse ca needs a file"),
    (["translate", "ra2ca"], "translate ra2ca needs --ra"),
    (["export-dot"], "pass --ra or --ca"),
])
def test_missing_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("argv", [
    ["parse", "ltl", "--ltl", "a", "--ltl-file", "f.ltl"],
    ["parse", "fo", "--fo", "Pa(x0)", "--fo-file", "f.fo"],
    ["eval", "--word", "a ; 0", "--ltl", "a", "--ltl-file", "f.ltl"],
    ["eval", "--word", "a ; 0", "--fo-file", "f.fo", "--fo", "Pa(x0)"],
    ["translate", "ltl2ra", "--ltl", "a", "--ltl-file", "f.ltl"],
])
def test_formula_text_and_file_together_are_a_usage_error(capsys, argv):
    """A formula comes from its text or its file, never both."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    first, second = (a for a in argv if a.startswith(("--ltl", "--fo")))
    assert exit_.value.code == 2
    assert f"argument {second}: not allowed with argument {first}" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["y=1", "x0", "x0=", "x0=b", "xxx0=1", "0=1", "x=1"])
def test_malformed_assign_is_a_usage_error(capsys, item):
    code, out, err = run(capsys, "eval", "--word", "a a b ; 0 2 | 1", "--fo", "Pa(x0)",
                         "--assign", item)
    assert code == 2 and out == ""
    assert err.strip() == f"error: bad --assign item {item!r}, expected xN=position"


@pytest.mark.parametrize("argv", [
    ["sat-bounded", "--ltl", "a", "--max-len", "-1"],
    ["sat-bounded", "--ltl", "a", "--max-len", "0"],
    ["circle", "--ltl", "a", "--max-len", "0"],
    ["circle", "--ltl", "a", "--max-len", "1", "--back-max-len", "0"],
    ["empty", "ca", f"{CORPUS}/ca_fin.ca", "--budget", "-3"],
    ["empty", "ca", f"{CORPUS}/ca_inf.ca", "--words", "infinite", "--budget", "0"],
    ["accepts", "--ca", f"{CORPUS}/ca_fin.ca", "--letters", "ab", "--budget", "0"],
    ["accepts", "--ra", f"{CORPUS}/matching.ra", "--word", "a ; 0", "--max-states", "-1"],
    ["circle", "--ltl", "a", "--max-len", "1", "--budget", "x"],
])
def test_length_below_one_is_a_usage_error(capsys, argv):
    """Lengths and budgets below 1 are refused before any work."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    _, err = capsys.readouterr()
    what = "a budget" if argv[-2] in ("--budget", "--max-states") else "a length"
    assert exit_.value.code == 2
    assert f"expected {what} of at least 1, got '{argv[-1]}'" in err


def test_negative_back_alphabet_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["circle", "--ltl", "a", "--max-len", "1", "--back-alphabet-cap", "-5"])
    assert exit_.value.code == 2
    assert "expected a cap of at least 0, got '-5'" in capsys.readouterr().err


def test_back_alphabet_cap_0_skips_stage_3(capsys):
    code, out, _ = run(capsys, "circle", "--ltl", "a", "--max-len", "1",
                       "--back-alphabet-cap", "0")
    assert code == 1
    assert "[3] back-translated sentence: skipped" in out


def test_accepts_letter_outside_the_alphabet_is_a_parse_error(capsys):
    code, out, err = run(capsys, "accepts", "--ca", f"{CORPUS}/ca_fin.ca", "--letters", "zz")
    assert code == 3 and out == ""
    assert err.strip() == "parse error: letter 'z' not in the alphabet"


@pytest.mark.parametrize("argv", [
    ["accepts", "--ra", f"{CORPUS}/matching.ra", "--word", "z ; 0"],
    ["export-dot", "--ra", f"{CORPUS}/matching.ra", "--word", "a z ; 0 | 1"],
])
def test_data_word_letter_outside_the_alphabet_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == "parse error: letter 'z' not in the alphabet"


def test_accepts_comma_separated_letters(tmp_path, capsys):
    f = tmp_path / "updown.ca"
    f.write_text("""alphabet: up down
counters: 1
init: q0
accepting: q2
q0 up inc 1 q1
q1 down dec 1 q2
""")
    code, out, _ = run(capsys, "accepts", "--ca", str(f), "--letters", "up,down")
    assert code == 1 and out.strip() == "accepts"
    code, out, _ = run(capsys, "accepts", "--ca", str(f), "--letters", "down,up")
    assert code == 0 and out.strip() == "rejects"
    # letters of several characters: the value is split on commas even
    # without one, so it is never read character by character
    code, _, err = run(capsys, "accepts", "--ca", str(f), "--letters", "updown")
    assert code == 3 and err.strip() == "parse error: letter 'updown' not in the alphabet"


def test_accepts_one_letter_of_several_characters(tmp_path, capsys):
    f = tmp_path / "up.ca"
    f.write_text("""alphabet: up down
counters: 1
init: q0
accepting: q1
q0 up inc 1 q1
""")
    code, out, _ = run(capsys, "accepts", "--ca", str(f), "--letters", "up")
    assert code == 1 and out.strip() == "accepts"
    code, out, _ = run(capsys, "accepts", "--ca", str(f), "--letters", "down")
    assert code == 0 and out.strip() == "rejects"
    code, _, err = run(capsys, "accepts", "--ca", str(f), "--letters", "up,")
    assert code == 3 and err.strip() == "parse error: letter '' not in the alphabet"
