"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace, *flags, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *flags, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_nothing_failed(workload):
    proc = bench(workload, 3, 0)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert "failed_share = 0 ratio" in proc.stdout

    traced = result(bench(workload, 3, 1))
    assert traced["correct"] and traced["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: m["unit"] for name, m in traced["metrics"].items()}


def counts(res):
    return {name: m["value"] for name, m in res["metrics"].items()
            if m["unit"] == "count" or name.endswith("replays_per_decision")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    first, second = (counts(result(bench(workload, 5, 1))) for _ in range(2))
    assert first == second


def fingerprint(w):
    if isinstance(w, workloads.Membership):
        return [str(f) for f in w.randoms], [str(x) for x in w.words]
    if isinstance(w, workloads.Emptiness):
        return [q.key for q in w.queries], [repr(q.run()) for q in w.queries]
    if isinstance(w, workloads.Buchi):
        return [c.transitions for c in w.pool]
    return w.sigma.letters, [q.key for q in w.queries]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_second_seed_changes_the_instances(workload):
    lib = run.load_library()
    cls = workloads.WORKLOADS[workload]
    assert fingerprint(cls(lib, 1, True)) == fingerprint(cls(lib, 1, True))
    assert fingerprint(cls(lib, 1, True)) != fingerprint(cls(lib, 2, True))


def test_spans_written_with_parents_first():
    result(bench("emptiness", 1, 1))
    spans = [json.loads(line) for line in run.SPANS.read_text().splitlines()]
    assert spans and all(s["parent"] is None or s["parent"] < s["id"] for s in spans)
    assert all(0 <= s["self_s"] <= s["total_s"] + 1e-9 for s in spans)
    names = {s["name"] for s in spans}
    assert {"nra.nonempty_finite", "ra.accepts", "games.solve"} <= names
    by_id = {s["id"]: s for s in spans}
    assert any(s["name"] == "ra.accepts" and by_id[s["parent"]]["name"] == "nra.nonempty_finite"
               for s in spans if s["parent"] is not None)


def test_refuses_to_run_without_witness_checks():
    proc = bench("emptiness", 1, 0, "-O")
    assert proc.returncode != 0 and not proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("membership", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout
