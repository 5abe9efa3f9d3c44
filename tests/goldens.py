"""The golden contract: each command whose output bytes are committed under
tests/data, with what its golden pins and when that was written.

`PYTHONPATH=src python -S tests/goldens.py` runs each command as `python -S -m
termfisher ...` in tests/data and wants exit 0, an empty stderr and the golden's
bytes; then weigh and rank through --output, a sweep at d = 10**9 within 60 s,
and the README's python blocks, in order, as one script. It prints one line per
failure and exits 1 if there is any. TestGoldenReports runs the same commands.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"

# The sweep CSV has no golden: it prints full repr floats, whose last digit can
# differ from one libm to another.
GOLDENS = [
    ("table", "golden_table.txt", "the reference tables; written before verify alone decided table"),
    ("table --format csv", "golden_table.csv", "the same tables as CSV, written with them"),
    ("sweep", "golden_sweep.txt", "the default sweep report, written with the tables"),
    ("weigh --input textdir --format textdir", "golden_weigh.tsv",
     "the texts of corpus.jsonl, one file per id, print the next entry's bytes"),
    ("weigh --input corpus.jsonl --format jsonl", "golden_weigh.tsv",
     "every weight of every nonzero cell, written by oracle_pipeline.py in exact arithmetic"),
    ("weigh --input corpus.jsonl --format jsonl --include-zeros", "golden_weigh_zeros.tsv",
     "zero cells too, phi NA at tf = 0; written before weigh rendered once per key"),
    ("weigh --input table4_case1.csv --format counts --schemes tfidf,tficf --include-zeros",
     "golden_weigh_counts.tsv", "counts input, zero cells too; written with golden_weigh_zeros.tsv"),
    ("weigh --input corpus.jsonl --format jsonl --schemes fisher,phi,idf", "golden_weigh_mixed.tsv",
     "NA beside selected schemes; written before weigh planned its schemes once per walk"),
    ("rank --input corpus.jsonl --format jsonl --top-k 3", "golden_rank.tsv",
     "fisher top 3; written before rank pruned dominated cells"),
    ("rank --input table4_case1.csv --format counts --scheme tficf --top-k 3", "golden_rank_counts.tsv",
     "a column walked in stored order; written before columns were stored as tuples"),
    ("rank --input corpus.jsonl --format jsonl --scheme cor1_approx --top-k 5", "golden_rank_cor1.tsv",
     "scores below 0; written before the top k became one sort and a slice"),
]


def run(command, *extra, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    argv = [sys.executable, "-S", *command.split(), *extra]
    return subprocess.run(argv, cwd=DATA, env=env, capture_output=True, **kwargs)


def failure(label, result, out=b"", golden=None):
    if result.returncode or result.stderr:
        return f"{label}: exit {result.returncode}, stderr {result.stderr[-300:]!r}"
    if golden and out != (DATA / golden).read_bytes():
        return f"{label}: output differs from tests/data/{golden}"


def failures():
    for command, golden, _ in GOLDENS:
        result = run(f"-m termfisher {command}")
        yield failure(command, result, result.stdout, golden)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp, "out")
        for command, golden, _ in GOLDENS[4], GOLDENS[8]:  # weigh and rank on corpus.jsonl
            result = run(f"-m termfisher {command} --output", target)
            yield failure(f"{command} --output", result, target.exists() and target.read_bytes(), golden)
    try:
        yield failure("sweep at d = 10**9", run("-m termfisher sweep --cor2-d 1000000000,2000000000", timeout=60))
    except subprocess.TimeoutExpired:
        yield "sweep at d = 10**9: no exit within 60 s"
    blocks = re.findall(r"```python\n(.*?)```", (TESTS.parent / "README.md").read_text(encoding="utf-8"), re.S)
    yield failure("README python blocks", run("-", input="\n".join(blocks).encode("utf-8")))
    yield None if blocks else "README: no python block"


def main():
    lines = [line for line in failures() if line]
    sys.stderr.writelines(line + "\n" for line in lines)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
