"""Term-weighting schemes over a term-document matrix.

Covers the classical TF-IDF family, the enrichment weight -log H (negative
log of the one-tailed Fisher's exact test p-value, i.e. the hypergeometric
upper tail), and the correction terms that bridge the enrichment weight to
TF-ICF and TF-IDF. `weigh_matrix` yields the record of every cell of a
matrix; `rank_matrix` keeps each document's top k under one scheme.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import starmap
from math import exp, inf, log
from operator import neg
from typing import Callable, Iterable, Iterator, NamedTuple

from .corpus import CellStats, TermDocumentMatrix
from .errors import UndefinedPhiError, UndefinedQuotientError
from .numerics import HypergeomParams, log_binom_pmf, log_hypergeom_tail

SCHEMES = frozenset(
    {"tf", "idf", "icf", "tfidf", "tficf", "fisher", "phi", "psi", "approximations"}
)

# rank scheme -> (weigh_matrix scheme that computes it, WeightRecord field)
RANK_SCHEMES = {
    "tf": ("tf", "tf"), "idf": ("idf", "idf"), "icf": ("icf", "icf"),
    "tfidf": ("tfidf", "tfidf"), "tficf": ("tficf", "tficf"),
    "fisher": ("fisher", "neg_log_p"), "phi": ("phi", "phi"), "psi": ("psi", "psi"),
    "thm1_approx": ("approximations", "thm1_approx"),
    "cor1_approx": ("approximations", "cor1_approx"),
}


def idf(stats: CellStats) -> float:
    """Inverse document frequency ln(d / b_i); 0 for a term in every document."""
    return log(stats.d / stats.b_i)


def icf(stats: CellStats) -> float:
    """Inverse collection frequency ln(n / n_i); n_i >= b_i >= 1 in any cell."""
    return log(stats.n / stats.n_i)


def tfidf(stats: CellStats) -> float:
    """Term frequency times inverse document frequency: n_ij * ln(d / b_i)."""
    return stats.n_ij * idf(stats)


def tficf(stats: CellStats) -> float:
    """Term frequency times inverse collection frequency: n_ij * ln(n / n_i)."""
    return stats.n_ij * icf(stats)


def _log_tails(stats: CellStats, memo: dict | None = None) -> tuple[float, float]:
    """(ln P(X >= n_ij + 1), ln P(X >= n_ij)): the one kernel call that every
    tail scheme shares; memo is the kernel's ln C memo for the batch, if any."""
    return log_hypergeom_tail(HypergeomParams(stats.n_ij + 1, stats.n_i, stats.n_j, stats.n), memo)


def _quotient(stats: CellStats, log_tail_past: float, memo: dict | None = None) -> float:
    p_i = stats.p_i
    if p_i <= 0.0 or p_i >= 1.0:
        raise UndefinedQuotientError("quotient requires 0 < p_i < 1")
    log_mass = log_binom_pmf(stats.n_ij, stats.n_j, p_i, memo)  # counts past the float range raise
    try:
        return exp(log_tail_past - log_mass)
    except OverflowError:
        return inf  # a tail near 1 over a binomial mass far below exp(-709)


def fisher_weight(stats: CellStats) -> float:
    """Enrichment weight: -ln of the upper-tail probability P(X >= n_ij).

    Zero when n_ij = 0 (the tail is the whole distribution), and grows with
    the degree to which the term is over-represented in the document.
    """
    return 0.0 - _log_tails(stats)[1]  # from 0.0, so that a zero weight is +0.0


def q_ij(stats: CellStats) -> float:
    """Quotient of the tail just past n_ij over the binomial mass at n_ij.

    q = P(X >= n_ij + 1) / b(n_ij; n_j, p_i), evaluated in log space.
    Exactly 0 when the tail past n_ij is empty; inf past the float range.
    """
    return _quotient(stats, _log_tails(stats)[0])


def phi(stats: CellStats, q: float) -> float:
    """Correction closing the gap between the enrichment weight and TF-ICF.

    n_ij*ln(p_ij) + (n_j - n_ij)*(p_i - p_ij) - q, with q = q_ij(stats).
    Undefined at n_ij = 0.
    """
    if stats.n_ij < 1:
        raise UndefinedPhiError("phi requires n_ij >= 1")
    p_ij = stats.p_ij
    return stats.n_ij * log(p_ij) + (stats.n_j - stats.n_ij) * (stats.p_i - p_ij) - q


def psi(stats: CellStats, q: float) -> float:
    """Correction closing the gap between the enrichment weight and TF-IDF.

    -n_ij*(1 - b_i/d)*(1 - p_ij) - q, with q = q_ij(stats).
    """
    # from 0.0, not by negation, so that a zero correction is +0.0
    return 0.0 - stats.n_ij * (1.0 - stats.b_i / stats.d) * (1.0 - stats.p_ij) - q


class WeightRecord(NamedTuple):
    """All weights for one cell; None marks values not computed or undefined."""

    term: str
    doc: str
    tf: int
    idf: float | None = None
    icf: float | None = None
    tfidf: float | None = None
    tficf: float | None = None
    neg_log_p: float | None = None
    q: float | None = None
    phi: float | None = None
    psi: float | None = None
    thm1_approx: float | None = None
    cor1_approx: float | None = None
    notes: tuple[str, ...] = ()


def _plan(schemes: frozenset[str]) -> tuple[Callable[[CellStats, dict | None], tuple], bool, bool]:
    """The plan of one set of schemes, made once per walk: (record, reads_n_j,
    reads_b_i). record maps a cell's stats (and memo, the batch's ln C memo,
    if any) to the record without term and doc -- tf, the selected scheme
    values (None where not selected or NA) and a note for each that is NA. It
    reads n_j only if reads_n_j and b_i only if reads_b_i, so a memo key holds
    each only then (and must not outlive its matrix, which fixes n and d)."""
    approx = "approximations" in schemes
    wants_idf, wants_icf, wants_fisher = "idf" in schemes, "icf" in schemes, "fisher" in schemes
    shows_tfidf, shows_tficf = "tfidf" in schemes, "tficf" in schemes
    wants_tfidf, wants_tficf = approx or shows_tfidf, approx or shows_tficf
    wants_phi, wants_psi = approx or "phi" in schemes, approx or "psi" in schemes
    wants_q = wants_phi or wants_psi
    reads_n_j, reads_b_i = wants_fisher or wants_q, wants_idf or wants_tfidf or wants_psi

    def record(stats: CellStats, memo: dict | None) -> tuple:
        tfidf_v = tfidf(stats) if wants_tfidf else None
        tficf_v = tficf(stats) if wants_tficf else None
        neg_log_p = q_v = phi_v = psi_v = thm1_v = cor1_v = None
        notes: tuple[str, ...] = ()
        if wants_fisher or wants_q:
            log_tail_past, log_tail = _log_tails(stats, memo)
            if wants_fisher:
                neg_log_p = 0.0 - log_tail
            if wants_q:
                try:
                    q_v = _quotient(stats, log_tail_past, memo)
                except UndefinedQuotientError as exc:
                    notes = (f"q: {exc}",)
        if wants_phi:
            if q_v is None:
                notes += ("phi: requires q",)
            else:
                try:
                    phi_v = phi(stats, q_v)
                except UndefinedPhiError as exc:
                    notes += (f"phi: {exc}",)
        if wants_psi:
            if q_v is None:
                notes += ("psi: requires q",)
            else:
                psi_v = psi(stats, q_v)
        if approx:
            if phi_v is not None:
                thm1_v = tficf_v + phi_v
            if psi_v is not None:
                cor1_v = tfidf_v + psi_v
        return (
            stats.n_ij,
            idf(stats) if wants_idf else None,
            icf(stats) if wants_icf else None,
            tfidf_v if shows_tfidf else None,
            tficf_v if shows_tficf else None,
            neg_log_p, q_v, phi_v, psi_v, thm1_v, cor1_v, notes,
        )

    return record, reads_n_j, reads_b_i


def weigh_matrix(
    matrix: TermDocumentMatrix,
    schemes: Iterable[str] | None = None,
    *,
    include_zeros: bool = False,
    render: Callable[[tuple], object] | None = None,
) -> Iterator:
    """An iterator of one WeightRecord per nonzero cell (all cells with
    include_zeros), document-major, then by term index; the schemes are
    checked when it is made, and each record is made when it is drawn.

    Within one matrix (n and d fixed) a cell's values depend only on n_ij,
    n_i, and, if a selected scheme reads them, n_j (fisher, phi, psi,
    approximations) and b_i (idf, tfidf, psi, approximations), so every
    scheme is evaluated once per distinct key; the memos live as long as the
    iterator. A failed per-cell precondition (e.g. phi at tf = 0) leaves its
    fields None with a note; the batch never aborts. With render it yields
    (term, doc, render(tail)) instead, tail being the record from tf on, and
    calls render once per key and keeps only its value (not None): no record.
    """
    if schemes is None:
        selected = SCHEMES
    else:
        selected = frozenset(schemes)
        unknown = selected - SCHEMES
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
    if render is None:  # tuple keeps the tail as it is
        return starmap(_record, _weigh_cells(matrix, selected, include_zeros, tuple))
    return _weigh_cells(matrix, selected, include_zeros, render)


def _record(term: str, doc: str, tail: tuple) -> WeightRecord:
    return tuple.__new__(WeightRecord, (term, doc) + tail)


def _weigh_cells(
    matrix: TermDocumentMatrix, selected: frozenset[str], include_zeros: bool, finish: Callable
) -> Iterator[tuple]:
    vocab, docs = matrix.vocab, matrix.docs
    row_totals, col_totals = matrix.row_totals, matrix.col_totals
    record, reads_n_j, reads_b_i = _plan(selected)
    b_i_key = matrix.doc_freq if reads_b_i else (0,) * matrix.m
    memo: dict[tuple[int, int, int, int], object] = {}  # key -> finish(tail)
    log_choose_memo: dict[tuple[int, int], float] = {}  # ln C for this matrix's tails and masses
    for j, column in enumerate(matrix.columns):
        n_j = col_totals[j]
        if n_j == 0:
            continue  # empty document: no cell statistics are defined
        doc = docs[j]
        n_j_key = n_j if reads_n_j else 0
        cells = zip(column.indices, column.counts)
        if include_zeros:  # every term's count, zero where the column has no cell
            dense = [0] * matrix.m
            for i, n_ij in cells:
                dense[i] = n_ij
            cells = enumerate(dense)
        for i, n_ij in cells:
            key = (n_ij, row_totals[i], n_j_key, b_i_key[i])
            value = memo.get(key)
            if value is None:
                value = memo[key] = finish(record(matrix.cell_stats(i, j), log_choose_memo))
            yield vocab[i], doc, value


def rank_matrix(
    matrix: TermDocumentMatrix, scheme: str, top_k: int
) -> list[tuple[str, list[tuple[str, float]]]]:
    """Each document's top_k terms under one RANK_SCHEMES scheme.

    One (doc, [(term, score), ...]) per document with a cell, in document
    order: the highest score first, ties by ascending term, and a cell whose
    value is None (NA) left out. A score is the float of the cell's
    weigh_matrix value, evaluated once per distinct key as there.

    Under fisher only the cells that can reach the top k are evaluated.
    Within one document the weight -ln P(X >= n_ij) rises with n_ij and falls
    with n_i, so a cell scores below each cell that dominates it: one with
    n_ij' >= n_ij, n_i' <= n_i and another pair (n_ij', n_i'). A cell is not
    evaluated when top_k evaluated cells that score above 0 dominate it.
    Cells of one pair tie, and ties go by term, so they do not dominate each
    other; nor does a cell whose score computes to 0 (its tail underflows),
    since the cells below it can compute 0 as well. A cell at the lower
    support edge (n_ij <= n_i + n_j - n) scores exactly 0 and is always
    evaluated. The walk takes the cells by (n_ij descending, n_i ascending),
    so once a pair is dominated, so is every later cell of its n_ij short of
    the edge (nothing is evaluated in between to change the dominators): one
    bisection skips that run. The other schemes evaluate every cell, in column
    order. One sort of each document's (-score, term) pairs, which never tie,
    orders its scores.
    """
    weighed, field = RANK_SCHEMES[scheme]
    record, reads_n_j, reads_b_i = _plan(frozenset({weighed}))
    at = WeightRecord._fields.index(field) - 2  # a record starts at tf
    prune = scheme == "fisher"
    vocab, docs = matrix.vocab, matrix.docs
    row_totals, col_totals = matrix.row_totals, matrix.col_totals
    b_i_key = matrix.doc_freq if reads_b_i else (0,) * matrix.m
    memo: dict[tuple[int, int, int, int], float | None] = {}  # key -> -score, or None for NA
    log_choose_memo: dict[tuple[int, int], float] = {}
    ranking = []
    for j, (indices, counts) in enumerate(matrix.columns):
        n_j = col_totals[j]
        if n_j == 0:
            continue
        n_j_key = n_j if reads_n_j else 0
        edge = matrix.grand_total - n_j  # the lower support edge is n_i - edge
        above: list[int] = []  # n_i of the evaluated cells of earlier pairs that score above 0, sorted
        scored = []
        cells = list(zip(map(neg, counts), map(row_totals.__getitem__, indices), indices))
        if prune:
            cells.sort()  # by (-n_ij, n_i): the cells that dominate a cell all come before its pair
        pos, end, pair = 0, len(cells), None
        while pos < end:
            neg_n_ij, n_i, i = cells[pos]
            n_ij = -neg_n_ij
            if pair != (neg_n_ij, n_i):
                pair = (neg_n_ij, n_i)
                if prune and len(above) >= top_k and above[top_k - 1] <= n_i and n_ij > n_i - edge:
                    # dominated, and so is each later cell of n_ij short of the edge: skip them all
                    pos = bisect_left(cells, (neg_n_ij, n_ij + edge), pos)
                    continue
            pos += 1
            key = (n_ij, n_i, n_j_key, b_i_key[i])
            if key in memo:
                minus = memo[key]
            else:
                value = record(matrix.cell_stats(i, j), log_choose_memo)[at]
                minus = memo[key] = None if value is None else -float(value)
            if minus is not None:
                scored.append((minus, vocab[i]))
                if prune and minus < 0.0:
                    insort(above, n_i)
        scored.sort()  # the highest score first, ties by ascending term: (-score, term) never tie
        ranking.append((docs[j], [(term, -minus) for minus, term in scored[:top_k]]))
    return ranking
