"""Exact-arithmetic reference values for tests, and the helpers only tests use.

The references are built from integers and Fractions only: tail sums are
big-integer binomial sums, probabilities are exact rationals, and logs are
taken of (big) integers, which math.log handles at full precision. They
share no code with the package's log-space engine. The helpers at the end
(log_sum_exp, the Chvatal bound and the per-draw quantities,
embed_cell_counts, focal_stats and the counts writers) are not references.
"""

import csv
from fractions import Fraction
from math import comb, exp, inf, log, log1p
from pathlib import Path

from termfisher.corpus import COUNTS_CSV_HEADER, CellStats, TermDocumentMatrix, ingest_counts
from termfisher.errors import InvalidProbabilityError, InvalidSyntheticSpecError
from termfisher.numerics import log_binom_pmf


def support(K: int, s: int, N: int) -> tuple[int, int]:
    return max(0, s - (N - K)), min(K, s)


def tail_fraction(k: int, K: int, s: int, N: int) -> Fraction:
    """Exact P(X >= k) for X hypergeometric(K, s, N)."""
    lo, hi = support(K, s, N)
    if k <= lo:
        return Fraction(1)
    if k > hi:
        return Fraction(0)
    numerator = sum(comb(K, t) * comb(N - K, s - t) for t in range(k, hi + 1))
    return Fraction(numerator, comb(N, s))


def pmf_fraction(k: int, K: int, s: int, N: int) -> Fraction:
    lo, hi = support(K, s, N)
    if k < lo or k > hi:
        return Fraction(0)
    return Fraction(comb(K, k) * comb(N - K, s - k), comb(N, s))


def binom_pmf_fraction(k: int, s: int, p: Fraction) -> Fraction:
    if k < 0 or k > s:
        return Fraction(0)
    return comb(s, k) * p**k * (1 - p) ** (s - k)


def log_fraction(value: Fraction) -> float:
    """ln of a positive rational, via big-integer logs."""
    if value <= 0:
        raise ValueError("log of nonpositive rational")
    return log(value.numerator) - log(value.denominator)


def neg_log_tail(k: int, K: int, s: int, N: int) -> float:
    """Exact-arithmetic -ln P(X >= k); 0.0 for a full-support tail."""
    tail = tail_fraction(k, K, s, N)
    if tail == 1:
        return 0.0
    return -log_fraction(tail)


def quotient(n_ij: int, n_i: int, n_j: int, n: int) -> float:
    """Exact-arithmetic tail/binomial quotient for a cell."""
    tail = tail_fraction(n_ij + 1, n_i, n_j, n)
    if tail == 0:
        return 0.0
    ratio = tail / binom_pmf_fraction(n_ij, n_j, Fraction(n_i, n))
    return float(ratio)


# -- helpers that are not references ------------------------------------------


def log_sum_exp(a: float, b: float) -> float:
    """ln(exp(a) + exp(b)) without leaving log space."""
    if a == -inf:
        return b
    if b == -inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + log1p(exp(lo - hi))


def chvatal_log_bound(stats: CellStats) -> float:
    """Exponential upper bound on ln P(X >= n_ij + 1) for the cell's tail.

    Evaluates n_j * [pc*ln(p_i/pc) + (1-pc)*ln((1-p_i)/(1-pc))] with
    pc = p_ij + 1/n_j. Applicability (p_i <= pc < 1) is checked on the
    integer fields so borderline cells are classified exactly; a cell
    outside it raises ValueError.
    """
    # p_i <= pc  <=>  n_i * n_j <= (n_ij + 1) * n;  pc < 1  <=>  n_ij + 1 < n_j
    if stats.n_i * stats.n_j > (stats.n_ij + 1) * stats.n:
        raise ValueError("requires p_i <= p_check")
    if stats.n_ij + 1 >= stats.n_j:
        raise ValueError("requires p_check < 1")
    if stats.n_i * stats.n_j == (stats.n_ij + 1) * stats.n:
        return 0.0  # pc == p_i exactly: both logs are ln 1
    p_i = stats.p_i
    pc = stats.p_ij + 1.0 / stats.n_j
    return stats.n_j * (pc * log(p_i / pc) + (1.0 - pc) * log((1.0 - p_i) / (1.0 - pc)))


def w_binomial(stats: CellStats) -> float:
    """Per-draw log binomial mass: ln b(n_ij; n_j, p_i) / n_j, exact in log space."""
    p_i = stats.p_i
    if not 0.0 < p_i < 1.0:
        raise InvalidProbabilityError("requires 0 < p_i < 1")
    return log_binom_pmf(stats.n_ij, stats.n_j, p_i) / stats.n_j


def w_hypergeom_bound(stats: CellStats) -> float:
    """Per-draw tail bound: pc*ln(p_i/pc) + (1-pc)*ln((1-p_i)/(1-pc)).

    Equals chvatal_log_bound(stats) / n_j by construction.
    """
    return chvatal_log_bound(stats) / stats.n_j


def embed_cell_counts(cell: CellStats) -> list[tuple[str, str, int]]:
    """Count rows for a d-document collection realizing the given cell exactly.

    The focal cell (term "focal") lands in document "doc00000"; the remaining
    occupancy is padded with the term "filler" so that all of
    (n_ij, n_i, n_j, n, b_i, d) hold. CellStats itself bounds n_ij by
    min(n_i, n_j) and b_i by [1, d]; what else a collection needs is checked here.
    """
    focal_term, filler_term = "focal", "filler"
    n_ij, n_i, n_j, n, b_i, d = cell.n_ij, cell.n_i, cell.n_j, cell.n, cell.b_i, cell.d
    if n_ij < 1:
        raise InvalidSyntheticSpecError("focal cell needs n_ij >= 1")
    if b_i == 1:
        if n_i != n_ij:
            raise InvalidSyntheticSpecError("b_i = 1 requires n_i = n_ij")
    elif n_i - n_ij < b_i - 1:
        raise InvalidSyntheticSpecError(
            "remaining focal occurrences cannot cover b_i - 1 other documents"
        )
    leftover = n - n_i - (n_j - n_ij)
    if leftover < 0:
        raise InvalidSyntheticSpecError("n too small for the requested cell")
    if d == 1 and leftover > 0:
        raise InvalidSyntheticSpecError("single document cannot absorb leftover occurrences")

    def doc_id(j: int) -> str:
        return f"doc{j:05d}"

    rows: list[tuple[str, str, int]] = [(focal_term, doc_id(0), n_ij)]
    if n_j > n_ij:
        rows.append((filler_term, doc_id(0), n_j - n_ij))

    # spread the focal remainder over the other containing documents, each >= 1
    focal_share = [0] * d
    if b_i > 1:
        base, extra = divmod(n_i - n_ij, b_i - 1)
        for j in range(1, b_i):
            focal_share[j] = base + (1 if j - 1 < extra else 0)

    filler_share = [0] * d
    if d > 1:
        base, extra = divmod(leftover, d - 1)
        for j in range(1, d):
            filler_share[j] = base + (1 if j - 1 < extra else 0)

    for j in range(1, d):
        mentioned = False
        if focal_share[j] > 0:
            rows.append((focal_term, doc_id(j), focal_share[j]))
            mentioned = True
        if filler_share[j] > 0:
            rows.append((filler_term, doc_id(j), filler_share[j]))
            mentioned = True
        if not mentioned:
            rows.append((filler_term, doc_id(j), 0))  # register the empty document
    return rows


def focal_stats(cell: CellStats) -> CellStats:
    """The focal cell's statistics, read back from the matrix that
    ingest_counts builds of embed_cell_counts(cell)."""
    matrix = ingest_counts(embed_cell_counts(cell))
    return matrix.cell_stats(matrix.vocab.index("focal"), matrix.docs.index("doc00000"))


def export_counts(matrix: TermDocumentMatrix) -> list[tuple[str, str, int]]:
    """Rows that rebuild the matrix exactly via ingest_counts.

    The first pass lists every term against document 0 (zero counts
    included) so that re-ingestion re-seeds the vocabulary order; later
    documents contribute their nonzero cells, or a single zero row when
    they have none.
    """
    vocab, docs, columns = matrix.vocab, matrix.docs, matrix.columns
    first = dict(zip(*columns[0]))
    rows = [(term, docs[0], first.get(i, 0)) for i, term in enumerate(vocab)]
    for doc, column in zip(docs[1:], columns[1:]):
        if column.indices:
            rows.extend((vocab[i], doc, c) for i, c in zip(*column))
        else:
            rows.append((vocab[0], doc, 0))
    return rows


def write_counts_csv(path: str | Path, rows: list[tuple[str, str, int]]) -> None:
    """Write counts rows as UTF-8 CSV with LF line endings."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COUNTS_CSV_HEADER)
        writer.writerows(rows)
