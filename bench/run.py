"""Benchmark of the datawords chain: one workload per run, one client, one
query at a time (closed loop, no threads).

    python3 bench/run.py --workload membership --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures whole rounds of queries until
``--seconds`` of query time have passed and prints the end-to-end metrics.
Times are reported at a reference host speed: the speed of a shared host
swings by up to 1.7x within a minute, so a fixed pure-Python job
(``reference.py``, in a child interpreter of its own) is timed before and
after each set-up and after every quarter second or so of queries, and
each set-up and each stretch of queries is scaled by ``REFERENCE_S`` over
the mean of the job's times around it.  The unscaled times are printed as
one JSON object on the line above the result.
With ``--trace 1`` it runs a seed-determined batch of rounds (its length
set by ``--seconds``) untraced, then sets up again and runs the same batch
with every layer's public functions wrapped, prints the per-layer metrics
(their work counts repeat exactly for a seed) and writes every span to
``.bench_build/spans.jsonl``.  Every answer is checked outside the timed
interval.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

The library is imported from ``src/`` of the checkout that holds this file.
Never run this under ``python -O``: two deciders re-verify their witnesses
with ``assert``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Recorder
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().with_name("reference.py")
SPANS = ROOT / ".bench_build" / "spans.jsonl"  # every span of the last traced run
MODULES = ("words", "ltl", "fo", "games", "ra", "ltl2ra", "nra", "ca", "ra2ca",
           "reductions", "corpus")
SETUPS = 5  # set-up repeats; setup_s is their median
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)  # tail percentiles, highest first
SHOWN_ERRORS = 5
REFERENCE_S = 0.008  # reference.py's time on the host the benchmark was sized on
SEGMENT_S = 0.25  # host speed is sampled after at least this much query time


class HostClock:
    """How fast the host runs now, relative to the reference host: scale a
    measured time by ``speed()`` to report it at reference speed.  The
    reference job runs in a child interpreter of its own, so nothing the
    library does to this one (heap size, gc thresholds) moves the factor."""

    def __enter__(self) -> HostClock:
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(REFERENCE)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def speed(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return REFERENCE_S / float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def load_library() -> SimpleNamespace:
    """Import the library afresh from the checkout's ``src/``."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "datawords" or n.startswith("datawords.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"datawords.{m}") for m in MODULES})
    where = Path(sys.modules["datawords"].__file__).resolve().parent
    if where != ROOT / "src" / "datawords":
        raise ImportError(f"datawords was imported from {where}, not from this checkout")
    return lib


class Checker:
    """Judges answers outside the timed interval: an instance's first answer
    by its oracle, later answers by comparison with the first."""

    def __init__(self):
        self.first: dict = {}
        self.seconds = 0.0

    def judge(self, query, out) -> Outcome:
        t0 = perf_counter()
        try:
            summary = query.summary(out)
            seen = self.first.get(query.key)
            if seen is None:
                outcome = query.check(out)
                self.first[query.key] = (summary, outcome)
            elif seen[0] == summary:
                outcome = seen[1]
            else:
                outcome = Outcome(False, f"{query.key}: answer differs from the first one")
        except Exception as exc:  # a failed replay is a wrong answer, not a crash
            outcome = Outcome(False, f"{query.key}: check raised {exc!r}")
        self.seconds += perf_counter() - t0
        return outcome


class Tally:
    def __init__(self):
        self.latencies: list[float] = []  # as measured
        self.scaled: list[float] = []  # at reference speed
        self.decided = 0
        self.errors: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scale(self, speed_before: float, speed_after: float) -> None:
        """Scale the queries timed since the last call by the mean of the
        host speeds sampled around them."""
        factor = (speed_before + speed_after) / 2
        self.scaled += [x * factor for x in self.latencies[len(self.scaled):]]


def run_rounds(workload, checker: Checker, stop, clock: HostClock,
               recorder: Recorder | None = None) -> Tally:
    """Run whole rounds until ``stop(rounds_done, busy_seconds)``.  The host
    speed is sampled after every SEGMENT_S of query time."""
    tally = Tally()
    k = 0
    speed = clock.speed()
    pending = 0.0  # query time since the last sample
    while not stop(k, tally.busy):
        for n, query in enumerate(workload.round(k)):
            if recorder is not None:
                recorder.query = f"{k}.{n}"
                recorder.active = True
            t0 = perf_counter()
            try:
                out = query.run()
                failure = None
            except Exception as exc:
                failure = exc
            tally.latencies.append(perf_counter() - t0)
            pending += tally.latencies[-1]
            if recorder is not None:
                recorder.active = False
            if failure is None:
                outcome = checker.judge(query, out)
                out = None
            else:
                outcome = Outcome(False, f"{query.key}: raised {failure!r}")
            tally.decided += outcome.decided
            if outcome.error:
                tally.errors.append(outcome.error)
            if pending >= SEGMENT_S:
                tally.scale(speed, after := clock.speed())
                speed, pending = after, 0.0
        k += 1
    tally.scale(speed, clock.speed())
    return tally


def tail(sorted_ms: list[float], target: float) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder, up to the
    workload's target, with at least ten samples beyond it."""
    n = len(sorted_ms)
    for p in LADDER:
        rank = math.ceil(p / 100 * n)
        if p <= target and n - rank >= 10:
            return p, sorted_ms[rank - 1]
    return 50.0, statistics.median(sorted_ms)


def timings(latencies: list[float], target: float) -> tuple[dict, float]:
    """Throughput and latency metrics of one list of query times, and the
    tail's percentile."""
    ms = sorted(x * 1e3 for x in latencies)
    p, tail_ms = tail(ms, target)
    return {
        "throughput_qps": (len(ms) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
    }, p


def timed_run(cls, workload, seconds: float, setups: list[tuple[float, float]], clock: HostClock):
    tally = run_rounds(workload, Checker(), lambda k, busy: k > 0 and busy >= seconds, clock)
    n = len(tally.latencies)
    metrics, p = timings(tally.scaled, cls.tail_percentile)
    metrics.update({
        "decided_share": (tally.decided / n, "ratio"),
        "setup_s": (statistics.median(t * f for t, f in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })
    unscaled, _ = timings(tally.latencies, cls.tail_percentile)
    unscaled["setup_s"] = (statistics.median(t for t, _ in setups), "s")
    notes = [f"latency_tail_ms is p{p:g} of {n} queries ({n - math.ceil(p / 100 * n)} beyond it)",
             f"failed_share = {len(tally.errors) / n:.6g} ratio",
             f"{tally.busy:.3f} s of queries; host speed {sum(tally.scaled) / tally.busy:.3f} "
             f"of the reference"]
    return tally, metrics, notes, unscaled


def traced_run(cls, lib, workload, seed: int, seconds: float, tiny: bool, clock: HostClock):
    rounds = max(1, round(seconds * cls.trace_rounds_per_second))
    stop = lambda k, busy: k >= rounds  # noqa: E731
    untraced = run_rounds(workload, Checker(), stop, clock)
    recorder = Recorder(lib)
    recorder.install()
    recorder.query = "setup"
    recorder.active = True
    workload = cls(lib, seed, tiny)
    recorder.active = False
    checker = Checker()
    traced = run_rounds(workload, checker, stop, clock, recorder)
    metrics = recorder.layer_metrics()
    metrics["bench.oracle.self_s"] = (checker.seconds, "s")
    metrics["trace.overhead_ratio"] = (sum(traced.scaled) / sum(untraced.scaled), "ratio")
    SPANS.parent.mkdir(exist_ok=True)
    recorder.write(SPANS)
    tally = Tally()
    tally.latencies = untraced.latencies + traced.latencies
    tally.errors = untraced.errors + traced.errors
    notes = [f"{rounds} rounds of {len(traced.latencies)} queries in all, run untraced and traced",
             f"spans written to {SPANS.relative_to(ROOT)}"]
    return tally, metrics, notes, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances, for the benchmark's tests")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("run.py: refusing to run under python -O; it strips the library's witness checks",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    with HostClock() as clock:
        try:
            setups = []  # (seconds, mean host speed around)
            speed = clock.speed()
            for _ in range(SETUPS):
                lib = workload = None  # each set-up is timed, and held in memory, alone
                gc.collect()
                t0 = perf_counter()
                lib = load_library()
                workload = cls(lib, args.seed, args.tiny)
                seconds = perf_counter() - t0
                after = clock.speed()
                setups.append((seconds, (speed + after) / 2))
                speed = after
        except (ImportError, OSError) as exc:
            print(f"run.py: cannot set up: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            tally, metrics, notes, unscaled = traced_run(cls, lib, workload, args.seed,
                                                         args.seconds, args.tiny, clock)
        else:
            tally, metrics, notes, unscaled = timed_run(cls, workload, args.seconds, setups, clock)
    for err in tally.errors[:SHOWN_ERRORS]:
        print(f"wrong: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    if unscaled:
        print(json.dumps({"unscaled": {name: {"value": value, "unit": unit}
                                       for name, (value, unit) in unscaled.items()}}))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": len(tally.latencies),
        "failed": len(tally.errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
