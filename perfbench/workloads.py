"""Seeded input generation for the termfisher benchmark workloads.

Every input is a pure function of (workload name, seed): the same pair gives
the same bytes. The generator keeps its own counts for every document, which
the output checker uses as the ground truth; it never goes through the
package's readers or ``export_counts``.

Vocabularies are Zipf-distributed (weight 1/rank^s). Document lengths vary
within half the mean on either side, in pairs that sum to twice the mean:
varied lengths make the tail keys (k, K, s, N) as diverse as in real
collections, while every seed gives a workload the same number of tokens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

#: Population size at and below which the package sums tails from its
#: log-factorial table instead of ``lgamma``.
SMALL_N = 10_000


@dataclass(frozen=True)
class CorpusSpec:
    docs: int
    tokens_per_doc: int
    vocab: int
    zipf_s: float = 1.0


@dataclass
class Corpus:
    """Ground truth for one generated input: counts per document.

    Each per-document dict keeps first-occurrence order, and documents are in
    file order, so the package's term and document indices can be replayed.
    """

    doc_ids: list[str]
    counts: list[dict[str, int]]
    term_index: dict[str, int] = field(init=False)
    row_totals: dict[str, int] = field(init=False)
    doc_freq: dict[str, int] = field(init=False)
    col_totals: list[int] = field(init=False)
    grand_total: int = field(init=False)

    def __post_init__(self) -> None:
        self.term_index, self.row_totals, self.doc_freq = {}, {}, {}
        for doc in self.counts:
            for term, c in doc.items():
                self.term_index.setdefault(term, len(self.term_index))
                self.row_totals[term] = self.row_totals.get(term, 0) + c
                self.doc_freq[term] = self.doc_freq.get(term, 0) + 1
        self.col_totals = [sum(doc.values()) for doc in self.counts]
        self.grand_total = sum(self.col_totals)

    @property
    def nnz(self) -> int:
        return sum(len(doc) for doc in self.counts)

    def cell(self, term: str, j: int) -> tuple[int, int, int, int, int, int]:
        """(n_ij, n_i, n_j, n, b_i, d) for a cell."""
        return (
            self.counts[j].get(term, 0), self.row_totals[term], self.col_totals[j],
            self.grand_total, self.doc_freq[term], len(self.doc_ids),
        )

    def stats(self) -> dict[str, float]:
        """Input-size figures plus hypergeometric support widths over the cells."""
        n = self.grand_total
        widths = [
            min(self.row_totals[t], n_j) - max(0, n_j - (n - self.row_totals[t])) + 1
            for doc, n_j in zip(self.counts, self.col_totals)
            for t in doc
        ]
        return {
            "docs": len(self.doc_ids),
            "terms": len(self.term_index),
            "tokens": n,
            "nnz": len(widths),
            "support_mean": round(sum(widths) / len(widths), 3),
            "support_max": max(widths),
        }


@dataclass(frozen=True)
class GridPoint:
    n: int
    n_i: int
    n_j: int
    n_ij: int


@dataclass
class Invocation:
    """One CLI call: its arguments, where its data stream goes, what to check."""

    label: str
    argv: list[str]
    output: Path
    kind: str  # "weigh", "rank", "table" or "sweep"
    corpus: Corpus | None = None
    schemes: frozenset[str] = frozenset()
    top_k: int = 0
    grid: list[GridPoint] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    cells: int  # nonzero cells weighed plus sweep grid points, per run
    stats: dict[str, float]


ALL_SCHEMES = frozenset(
    {"tf", "idf", "icf", "tfidf", "tficf", "fisher", "phi", "psi", "approximations"}
)

# Sizes are set so one workload run of the seed commit takes about a second
# on a 2-vCPU machine: short runs leave many per measured span, so the
# fastest of them is likely to fall in a phase when no other tenant slows
# the CPU.
LONG = CorpusSpec(docs=10, tokens_per_doc=1500, vocab=20_000)
SHORT = CorpusSpec(docs=700, tokens_per_doc=40, vocab=20_000)
CLASSIC = CorpusSpec(docs=600, tokens_per_doc=150, vocab=30_000)
SMALL = CorpusSpec(docs=80, tokens_per_doc=100, vocab=3_000)
SMALL_CORPORA = 2
GRID_POINTS = 40
TOP_K = 10
# Convergence sweep sizes that keep every population at or below SMALL_N
# (R = 20 occurrences per document, so n = 20 * d <= 8,000).
SMALL_COR2_D = "50,100,200,400"

# Why each workload exists is recorded in BENCHMARK.json at the repository root.
WORKLOADS = ("weigh_all_long", "rank_fisher_short", "weigh_classic_counts", "small_n_batch")


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"termfisher-bench:{workload}:{seed}:{part}")


def _sample_corpus(spec: CorpusSpec, rng: random.Random) -> tuple[list[str], list[list[str]]]:
    words = [f"w{r}" for r in range(1, spec.vocab + 1)]
    cum = list(accumulate(1.0 / r**spec.zipf_s for r in range(1, spec.vocab + 1)))
    doc_ids = [f"d{j:05d}" for j in range(spec.docs)]
    mean = spec.tokens_per_doc
    spreads = [rng.randint(0, mean // 2) for _ in range(spec.docs // 2)]
    lengths = [mean + d for d in spreads] + [mean - d for d in spreads] + [mean] * (spec.docs % 2)
    rng.shuffle(lengths)
    tokens = [rng.choices(words, cum_weights=cum, k=k) for k in lengths]
    return doc_ids, tokens


def _counts(tokens: list[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return counts


def write_jsonl(path: Path, spec: CorpusSpec, rng: random.Random) -> Corpus:
    doc_ids, tokens = _sample_corpus(spec, rng)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for doc, toks in zip(doc_ids, tokens):
            handle.write(json.dumps({"id": doc, "text": " ".join(toks)}) + "\n")
    return Corpus(doc_ids, [_counts(t) for t in tokens])


def write_counts_csv(path: Path, spec: CorpusSpec, rng: random.Random) -> Corpus:
    doc_ids, tokens = _sample_corpus(spec, rng)
    corpus = Corpus(doc_ids, [_counts(t) for t in tokens])
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("term,doc,count\n")
        for doc, counts in zip(doc_ids, corpus.counts):
            handle.writelines(f"{term},{doc},{c}\n" for term, c in counts.items())
    return corpus


def in_quotient_regime(p: GridPoint) -> bool:
    """The sweep's documented regime, restated from its definition."""
    return (
        p.n_ij <= min(p.n_i, p.n_j)
        and 100 * p.n_i <= p.n
        and p.n_j >= 200
        and p.n_ij >= 20
        and p.n_j - p.n_ij >= 20
        and 10 * p.n_i * p.n_j <= p.n_ij * p.n
    )


def write_grid(path: Path, count: int, rng: random.Random) -> list[GridPoint]:
    """In-regime quotient points with n <= SMALL_N and n_ij < n_i.

    A point with n_ij = n_i is exclusive: its tail past n_ij is empty, q = 0,
    and the sweep exits 3 by design.
    """
    points: list[GridPoint] = []
    while len(points) < count:
        n = rng.randint(6_000, SMALL_N)
        n_ij = rng.randint(20, 50)
        n_i = rng.randint(n_ij + 1, max(n_ij + 1, n // 100))
        n_j = rng.randint(200, max(200, n_ij * n // (10 * n_i)))
        point = GridPoint(n, n_i, n_j, n_ij)
        if n_ij < n_i and in_quotient_regime(point):
            points.append(point)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("n,n_i,n_j,n_ij\n")
        handle.writelines(f"{p.n},{p.n_i},{p.n_j},{p.n_ij}\n" for p in points)
    return points


def _merge_stats(corpora: list[Corpus]) -> dict[str, float]:
    parts = [c.stats() for c in corpora]
    nnz = sum(p["nnz"] for p in parts)
    return {
        "docs": sum(p["docs"] for p in parts),
        "terms": sum(p["terms"] for p in parts),
        "tokens": sum(p["tokens"] for p in parts),
        "nnz": nnz,
        "support_mean": round(sum(p["support_mean"] * p["nnz"] for p in parts) / nnz, 3),
        "support_max": max(p["support_max"] for p in parts),
    }


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of one workload under workdir and describe its CLI calls."""
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    if name == "weigh_all_long":
        corpus = write_jsonl(workdir / "long.jsonl", LONG, _rng(name, seed, "corpus"))
        inv = Invocation(
            "weigh", ["weigh", "--input", str(workdir / "long.jsonl"), "--format", "jsonl"],
            out / "weigh.tsv", "weigh", corpus, ALL_SCHEMES,
        )
        return Workload(name, [inv], corpus.nnz, corpus.stats())
    if name == "rank_fisher_short":
        corpus = write_jsonl(workdir / "short.jsonl", SHORT, _rng(name, seed, "corpus"))
        inv = Invocation(
            "rank",
            ["rank", "--input", str(workdir / "short.jsonl"), "--format", "jsonl",
             "--scheme", "fisher", "--top-k", str(TOP_K)],
            out / "rank.tsv", "rank", corpus, top_k=TOP_K,
        )
        return Workload(name, [inv], corpus.nnz, corpus.stats())
    if name == "weigh_classic_counts":
        corpus = write_counts_csv(workdir / "counts.csv", CLASSIC, _rng(name, seed, "corpus"))
        inv = Invocation(
            "weigh",
            ["weigh", "--input", str(workdir / "counts.csv"), "--format", "counts",
             "--schemes", "tfidf,tficf"],
            out / "weigh.tsv", "weigh", corpus, frozenset({"tfidf", "tficf"}),
        )
        return Workload(name, [inv], corpus.nnz, corpus.stats())
    if name == "small_n_batch":
        grid = write_grid(workdir / "grid.csv", GRID_POINTS, _rng(name, seed, "grid"))
        invocations = [
            Invocation("table", ["table"], out / "table.txt", "table"),
            Invocation(
                "sweep",
                ["sweep", "--grid-file", str(workdir / "grid.csv"), "--format", "csv",
                 "--cor2-d", SMALL_COR2_D],
                out / "sweep.csv", "sweep", grid=grid,
            ),
        ]
        corpora = []
        for c in range(SMALL_CORPORA):
            path = workdir / f"small{c}.jsonl"
            corpus = write_jsonl(path, SMALL, _rng(name, seed, f"corpus{c}"))
            corpora.append(corpus)
            invocations.append(Invocation(
                f"weigh{c}", ["weigh", "--input", str(path), "--format", "jsonl"],
                out / f"weigh{c}.tsv", "weigh", corpus, ALL_SCHEMES,
            ))
        stats = _merge_stats(corpora) | {"grid_points": len(grid)}
        return Workload(name, invocations, stats["nnz"] + len(grid), stats)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
