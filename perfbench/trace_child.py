"""Run the termfisher CLI with spans around the calls between its modules.

Usage: python3 perfbench/trace_child.py TRACE.json CLI-ARGS...

The package must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH). Names are wrapped where one module imported them from another,
so a span covers exactly the work one layer asked of the next. The span stack
lives in memory and only per-name totals are kept; they, the call counts and
the arguments the counters need are written to TRACE.json when the CLI
returns. A name that no longer exists is listed under "absent" rather than
failing the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

import termfisher.cli
import termfisher.corpus
import termfisher.verify
import termfisher.weights
from workloads import SMALL_N

# (module, attribute, span name, key under which results are kept for counters)
WRAPPED = [
    (termfisher.cli, "read_corpus_jsonl", "corpus.read", None),
    (termfisher.cli, "read_counts_csv", "corpus.read", None),
    (termfisher.cli, "read_text_dir", "corpus.read", None),
    (termfisher.cli, "read_stopwords", "corpus.read", None),
    (termfisher.cli, "ingest_text", "corpus.ingest", "matrix"),
    (termfisher.cli, "ingest_counts", "corpus.ingest", "matrix"),
    (termfisher.corpus.TermDocumentMatrix, "cell_stats", "corpus.cell_stats", None),
    (termfisher.cli, "weigh_matrix", "weights.weigh", "records"),
    (termfisher.weights, "log_hypergeom_tail", "numerics.tail", None),
    (termfisher.weights, "log_binom_pmf", "numerics.binom", None),
    (termfisher.verify, "log_binom_pmf", "numerics.binom", None),
    (termfisher.cli, "check_reference_tables", "verify.tables", "tables"),
    (termfisher.cli, "lemma1_sweep", "verify.sweep", "quotient"),
    (termfisher.cli, "cor2_convergence", "verify.sweep", None),
    (termfisher.cli, "binomial_decay_check", "verify.sweep", None),
]


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # per open span: time covered by its children
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.results: dict[str, list] = {}  # kept results, by key
        self.tail_args: list[tuple[int, int, int, int]] = []
        self.absent: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        children = [0]
        self.stack.append(children)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += elapsed
            self.total_ns[name] += elapsed
            self.self_ns[name] += elapsed - children[0]
            self.calls[name] += 1

    def wrap(self, owner, attr: str, name: str, keep: str | None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        is_tail = name == "numerics.tail"

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if is_tail:
                self.tail_args.append(tuple(args[0]))
            elif keep:
                self.results.setdefault(keep, []).append(result)
            return result

        setattr(owner, attr, wrapper)

    def counters(self) -> dict[str, int]:
        """Counts computed after the run, from the kept arguments and results."""
        matrices = self.results.get("matrix", [])
        records = [r for batch in self.results.get("records", []) for r in batch]
        terms = 0
        for k, K, s, N in self.tail_args:
            lo, hi = max(0, s - (N - K)), min(K, s)
            if lo < k <= hi:
                terms += hi - k + 1
        return {
            "docs": sum(m.d for m in matrices),
            "terms": sum(m.m for m in matrices),
            "tokens": sum(m.grand_total for m in matrices),
            "nnz": sum(sum(m.doc_freq) for m in matrices),
            "records": len(records),
            "na_fields": sum(len(r.notes) for r in records),
            "tail_calls": len(self.tail_args),
            "tail_distinct": len(set(self.tail_args)),
            "tail_terms": terms,
            "small_n_tail_calls": sum(1 for a in self.tail_args if a[3] <= SMALL_N),
            "grid_points": sum(len(r.results) for r in self.results.get("quotient", [])),
            "mismatches": sum(len(r[1]) for r in self.results.get("tables", [])),
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    for owner, attr, name, keep in WRAPPED:
        tracer.wrap(owner, attr, name, keep)
    code = tracer.span("cli.main", termfisher.cli.main, argv)
    report = {
        "total_ns": tracer.total_ns,
        "self_ns": tracer.self_ns,
        "calls": tracer.calls,
        "counters": tracer.counters(),
        "absent": tracer.absent,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
