"""Self-test of the benchmark's generator and output checker.

Usage (from the repository root): python3 perfbench/selftest.py

1. The generator writes identical bytes for the same seed, twice, and other
   bytes for another seed, for every workload.
2. The checker accepts real CLI outputs on small generated inputs, and
   rejects each copy of them in which one value is perturbed or two ranked
   rows are swapped.

Prints one line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
TINY = workloads.CorpusSpec(docs=6, tokens_per_doc=30, vocab=40)


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def run_cli(args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "termfisher", *args], env=env, cwd=ROOT, check=True)


def edit(data: bytes, line: int, column: int, sep: str, new) -> bytes:
    """A copy of data with one field replaced by new(old field)."""
    lines = data.decode().split("\n")
    cells = lines[line].split(sep)
    cells[column] = new(cells[column])
    lines[line] = sep.join(cells)
    return "\n".join(lines).encode()


def nudge(field: str) -> str:
    """The printed value plus 0.001, in the same notation."""
    return f"{float(field) + 1e-3:.6f}" if len(field.split(".")[-1]) == 6 else repr(float(field) + 1e-3)


def main() -> int:
    failures = 0

    def case(name: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest-") as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            first, second, other = tmp / f"{name}-a", tmp / f"{name}-b", tmp / f"{name}-c"
            workloads.generate(name, 7, first)
            workloads.generate(name, 7, second)
            workloads.generate(name, 8, other)
            case(f"{name}: same seed, same bytes", files(first) == files(second))
            case(f"{name}: other seed, other bytes", files(first) != files(other))
            for d in (first, second, other):
                shutil.rmtree(d)

        corpus = workloads.write_jsonl(tmp / "tiny.jsonl", TINY, random.Random(1))
        inputs = ["--input", str(tmp / "tiny.jsonl"), "--format", "jsonl"]
        run_cli(["weigh", *inputs, "--output", str(tmp / "weigh.tsv")])
        run_cli(["rank", *inputs, "--scheme", "fisher", "--top-k", "3", "--output", str(tmp / "rank.tsv")])
        grid = workloads.write_grid(tmp / "grid.csv", 5, random.Random(1))
        run_cli(["sweep", "--grid-file", str(tmp / "grid.csv"), "--format", "csv",
                 "--output", str(tmp / "sweep.csv")])

        weigh = (tmp / "weigh.tsv").read_bytes()
        rank = (tmp / "rank.tsv").read_bytes()
        sweep = (tmp / "sweep.csv").read_bytes()
        seed = "selftest"
        case("weigh output accepted", check.check_weigh(weigh, corpus, workloads.ALL_SCHEMES, seed) == [])
        case("rank output accepted", check.check_rank(rank, corpus, 3) == [])
        case("sweep output accepted", check.check_sweep(sweep, grid) == [])

        # The largest-count cell is always in the exact sample.
        rows = [line.split("\t") for line in weigh.decode().split("\n")[1:-1]]
        line = 1 + max(range(len(rows)), key=lambda k: int(rows[k][2]))
        for column, field in enumerate(check.TSV_COLUMNS[3:], start=3):
            bad = edit(weigh, line, column, "\t", nudge)
            case(f"weigh with {field} perturbed rejected",
                 check.check_weigh(bad, corpus, workloads.ALL_SCHEMES, seed) != [])
        bad = edit(weigh, 1, 2, "\t", lambda tf: str(int(tf) + 1))
        case("weigh with tf perturbed rejected",
             check.check_weigh(bad, corpus, workloads.ALL_SCHEMES, seed) != [])

        case("rank with a score perturbed rejected",
             check.check_rank(edit(rank, 2, 3, "\t", nudge), corpus, 3) != [])
        lines = rank.decode().split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        case("rank with two rows swapped rejected",
             check.check_rank("\n".join(lines).encode(), corpus, 3) != [])

        case("sweep with a q perturbed rejected",
             check.check_sweep(edit(sweep, 1, 3, ",", nudge), grid) != [])

    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
