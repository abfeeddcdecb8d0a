import json
import os
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


def test_letter_outside_alphabet_is_a_parse_error(capsys):
    code, out, err = run(capsys, "sat-bounded", "--ltl", "a & c",
                         "--alphabet", "a,b", "--max-len", "2")
    assert code == 3 and "not in the alphabet" in err
    code, out, err = run(capsys, "circle", "--ltl", "a & c",
                         "--alphabet", "a,b", "--max-len", "2")
    assert code == 3 and "not in the alphabet" in err
    assert out == ""  # refused before stage 1


def test_alphabet_header_is_used(tmp_path, capsys):
    f = tmp_path / "ga.ltl"
    f.write_text("alphabet: a b\nG a\n")
    code, out, _ = run(capsys, "translate", "ltl2ra", "--ltl-file", str(f))
    assert code == 0
    assert out.startswith("alphabet: a b\n")
    # --alphabet wins over the header
    code, out, _ = run(capsys, "translate", "ltl2ra", "--ltl-file", str(f),
                       "--alphabet", "a,b,c")
    assert code == 0 and out.startswith("alphabet: a b c\n")


def test_deep_nesting_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "datawords", "sat-bounded",
         "--ltl", "X " * 1000 + "a", "--max-len", "1"],
        env={**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == "error: input nested too deeply"


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
    ca_file = tmp_path / "loop.ca"
    ca_file.write_text("""alphabet: a
counters: 1
init: q0
accepting:
q0 a inc 1 q0
""")
    code, out, _ = run(capsys, "empty", "ca", str(ca_file), "--semantics",
                       "minsky", "--budget", "50")
    assert code == 4
    assert "unknown" in out and "budget" in out


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
    (tmp_path / "dup.ra").write_text(REGISTER_2_RA.replace("a b", "b b"))
    (tmp_path / "dup.ca").write_text(COUNTER_3_CA.replace("a b", "a a"))
    (tmp_path / "count.ca").write_text(COUNTER_3_CA.replace("counters: 1", "counters: x"))
    for argv, message in (
            (["sat-bounded", "--ltl-file", "dup.ltl", "--max-len", "1"], "letter 'a' repeated"),
            (["sat-bounded", "--ltl-file", "none.ltl", "--max-len", "1"], "empty alphabet"),
            (["empty", "nra", "dup.ra"], "letter 'b' repeated"),
            (["empty", "ca", "dup.ca"], "letter 'a' repeated"),
            (["empty", "ca", "count.ca"], "bad count in 'counters: x'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith(f"parse error: {message}"), err
