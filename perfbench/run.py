"""termfisher benchmark: seeded workloads through the CLI, one child at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of weigh_all_long, rank_fisher_short, weigh_classic_counts and
small_n_batch (BENCHMARK.json says what each stresses). The inputs are made
from the seed; the CLI of the checkout's ``src`` reads them as files. A
workload run is one CLI call, or for small_n_batch the whole batch of calls.
Runs repeat until their timed spans add up to S seconds (at least MIN_RUNS),
in a closed loop: the next child starts after the previous one has exited.

With --trace 0 it reports the end-to-end metrics: the wall time of the
fastest workload run, cells weighed per second at that time, the median over
runs of the peak RSS of the largest child (wait4 in spawner.py), and set-up time, the
fastest of many fresh interpreters importing termfisher.cli, sampled between
the workload runs. On a shared machine other tenants slow the CPU by up to
40% in phases of seconds to minutes, which moved medians of 20-second spans
by up to 60% between runs of one seed. So the times are minima, and both are
rescaled to a reference speed: between the runs the benchmark also times a
fixed job of its own (PROBE), and reports time * PROBE_NOMINAL_S / (fastest
PROBE time). A run that falls wholly in a slow phase slows the probe too:
in two sets of ten seeds of 20-second spans on a shared 2-vCPU machine, the
rescaled fastest runs spread 5-11% (quartile distance over median) where
the raw ones spread 9-21%. The raw times, their medians and the probe are printed too.

With --trace 1 it alternates untraced runs with runs under trace_child.py and
reports per-layer time and counts, low medians over the traced runs, plus the
tracing overhead (fastest traced minus fastest untraced run). Every output is
checked against exact arithmetic outside the timed span (check.py); a failed
check or a nonzero exit counts as a failed call. Human-readable lines come
first; the last line of stdout is one JSON object with correct, attempted,
failed and metrics.

Exit codes: 0 after a measurement (even one with failed calls), 2 when the
package source is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

MIN_RUNS = 3
SETUP_SAMPLES = 5  # imports and probes before the first run, then one each before every run
# The reference job: a fresh interpreter doing interpreter-bound work much like
# the CLI's (dict inserts, string keys, lgamma), about 0.1 s on a 2-vCPU machine.
PROBE = "import math\nd = {str(i): math.lgamma(i + 1.0) for i in range(60_000)}"
PROBE_NOMINAL_S = 0.1

END_TO_END = {"wall_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "corpus.read_s": "s", "corpus.ingest_s": "s", "corpus.cell_stats_s": "s",
    "corpus.cell_stats_calls": "count", "corpus.docs": "count", "corpus.terms": "count",
    "corpus.tokens": "count", "corpus.nnz": "count",
    "numerics.tail_s": "s", "numerics.tail_calls": "count",
    "numerics.tail_calls_per_cell": "calls/cell", "numerics.tail_terms": "count",
    "numerics.binom_s": "s", "numerics.tail_reuse_ratio": "ratio",
    "numerics.small_n_tail_calls": "count",
    "weights.weigh_s": "s", "weights.self_s": "s", "weights.records": "count",
    "weights.na_fields": "count",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "verify.tables_s": "s", "verify.sweep_s": "s", "verify.grid_points": "count",
    "verify.mismatches": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """One workload run: its timed span, its largest child, its trace reports."""

    wall_s: float
    peak_rss_mb: float
    traces: list[dict] = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # label -> sha256
    checked: dict[tuple[str, str], list[str]] = field(default_factory=dict)


class Spawner:
    """The small process that starts every timed child (see spawner.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=ROOT,
        )

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["code"], reply["rss_mb"]

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def timed_python(spawner: Spawner, code: str, workdir: Path) -> float:
    """Wall time of a fresh interpreter running code; raises if it fails."""
    wall, status, _ = spawner.run([sys.executable, "-c", code], workdir / "python.err")
    if status != 0:
        raise RuntimeError(f"{code!r} failed: {(workdir / 'python.err').read_text()}")
    return wall


def sample_setup(spawner: Spawner, workdir: Path, setups: list[float], probes: list[float]) -> None:
    setups.append(timed_python(spawner, "import termfisher.cli", workdir))
    probes.append(timed_python(spawner, PROBE, workdir))


def run_once(
    spawner: Spawner, wl: workloads.Workload, workdir: Path, traced: bool, tally: Tally, sample_seed: str
) -> Run:
    """One workload run; outputs are checked after every child has exited."""
    run = Run(0.0, 0.0)
    codes = []
    for k, inv in enumerate(wl.invocations):
        cli = inv.argv + ["--output", str(inv.output)]
        if traced:
            trace_path = workdir / f"trace{k}.json"
            argv = [sys.executable, str(HERE / "trace_child.py"), str(trace_path), *cli]
        else:
            argv = [sys.executable, "-m", "termfisher", *cli]
        inv.output.unlink(missing_ok=True)
        wall, code, rss = spawner.run(argv, workdir / f"{inv.label}.err")
        run.wall_s += wall
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        codes.append(code)
        if traced and code == 0:
            run.traces.append(json.loads(trace_path.read_text()))
    for inv, code in zip(wl.invocations, codes):
        tally.attempted += 1
        problems = [f"exit code {code}: {(workdir / f'{inv.label}.err').read_text()[-300:]}"] if code else []
        if not problems:
            data = inv.output.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            tally.digests[inv.label] = digest
            if (inv.label, digest) not in tally.checked:
                try:
                    tally.checked[inv.label, digest] = check.check(inv, data, sample_seed)
                except (ValueError, IndexError, KeyError) as exc:
                    tally.checked[inv.label, digest] = [f"malformed output: {exc!r}"]
            problems = tally.checked[inv.label, digest]
        if problems:
            tally.failed += 1
            tally.problems.extend(f"{inv.label}: {p}" for p in problems[:5])
    return run


def layer_metrics(run: Run, wl: workloads.Workload) -> dict[str, float]:
    """Per-layer figures of one traced run, summed over its CLI calls."""
    def total(key: str, name: str) -> float:
        return sum(t[key].get(name, 0) for t in run.traces)

    def count(name: str) -> int:
        return sum(t["counters"][name] for t in run.traces)

    cells = count("records") + count("grid_points")
    calls = count("tail_calls")
    return {
        "corpus.read_s": total("total_ns", "corpus.read") / 1e9,
        "corpus.ingest_s": total("total_ns", "corpus.ingest") / 1e9,
        "corpus.cell_stats_s": total("total_ns", "corpus.cell_stats") / 1e9,
        "corpus.cell_stats_calls": total("calls", "corpus.cell_stats"),
        "corpus.docs": count("docs"),
        "corpus.terms": count("terms"),
        "corpus.tokens": count("tokens"),
        "corpus.nnz": count("nnz"),
        "numerics.tail_s": total("total_ns", "numerics.tail") / 1e9,
        "numerics.tail_calls": calls,
        "numerics.tail_calls_per_cell": calls / cells if cells else 0.0,
        "numerics.tail_terms": count("tail_terms"),
        "numerics.binom_s": total("total_ns", "numerics.binom") / 1e9,
        "numerics.tail_reuse_ratio": 1.0 - count("tail_distinct") / calls if calls else 0.0,
        "numerics.small_n_tail_calls": count("small_n_tail_calls"),
        "weights.weigh_s": total("total_ns", "weights.weigh") / 1e9,
        "weights.self_s": total("self_ns", "weights.weigh") / 1e9,
        "weights.records": count("records"),
        "weights.na_fields": count("na_fields"),
        "cli.self_s": total("self_ns", "cli.main") / 1e9,
        "cli.bytes_out": sum(inv.output.stat().st_size for inv in wl.invocations),
        "verify.tables_s": total("total_ns", "verify.tables") / 1e9,
        "verify.sweep_s": total("total_ns", "verify.sweep") / 1e9,
        "verify.grid_points": count("grid_points"),
        "verify.mismatches": count("mismatches"),
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return f"none (n={n} <= 10)"
    return f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4f}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict[str, float], list[str]]:
    """Generate, measure and check one workload; returns tally, metrics, report lines."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        with Spawner() as spawner:
            return _measure(spawner, name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(
    spawner: Spawner, name: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[Tally, dict[str, float], list[str]]:
    wl = workloads.generate(name, seed, workdir)
    sample_seed = f"{name}:{seed}"
    timed_python(spawner, "import termfisher.cli", workdir)  # compiles bytecode once, as an install would
    setups: list[float] = []
    probes: list[float] = []
    for _ in range(SETUP_SAMPLES):
        sample_setup(spawner, workdir, setups, probes)
    tally = Tally()
    plain: list[Run] = []
    traced: list[Run] = []
    spent = 0.0
    while spent < seconds or len(plain) < MIN_RUNS or (trace and len(traced) < MIN_RUNS):
        sample_setup(spawner, workdir, setups, probes)
        use_trace = trace and len(traced) < len(plain)
        run = run_once(spawner, wl, workdir, use_trace, tally, sample_seed)
        (traced if use_trace else plain).append(run)
        spent += run.wall_s
    walls = [r.wall_s for r in plain]
    speed = PROBE_NOMINAL_S / min(probes)
    wall = min(walls) * speed
    lines = [
        f"workload {name} seed {seed}: inputs {json.dumps(wl.stats)}",
        f"  raw run wall time: n={len(walls)} runs, min {min(walls):.4f} s, "
        f"median {statistics.median(walls):.4f} s, max {max(walls):.4f} s, {tail_percentile(walls)}",
        f"  raw import time: n={len(setups)}, min {min(setups):.4f} s, "
        f"median {statistics.median(setups):.4f} s",
        f"  probe: n={len(probes)}, min {min(probes):.4f} s, median {statistics.median(probes):.4f} s, "
        f"times rescaled by {speed:.4f}",
        f"  failed_ratio {tally.failed / tally.attempted:.4f} ratio "
        f"({tally.failed} of {tally.attempted} calls)",
    ]
    lines += [f"  sha256 {label} {digest}" for label, digest in tally.digests.items()]
    lines += [f"  FAILED {p}" for p in tally.problems[:20]]
    if trace:
        per_run = [layer_metrics(r, wl) for r in traced if len(r.traces) == len(wl.invocations)]
        metrics = {
            key: statistics.median_low(m[key] for m in per_run) if per_run else 0.0
            for key in PER_LAYER if key != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (min(r.wall_s for r in traced) - min(walls)) * speed
        absent = sorted({a for r in traced for t in r.traces for a in t["absent"]})
        if absent:
            lines.append(f"  absent wrapped names: {', '.join(absent)}")
    else:
        metrics = {
            "wall_s": wall,
            "cells_per_s": wl.cells / wall,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": min(setups) * speed,
        }
    return tally, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "termfisher" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    result: dict[str, dict] = {}
    for name in names:
        tally, metrics, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in metrics.items():
            result[prefix + key] = {"value": value, "unit": units[key]}
            print(f"  {key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
