"""Output checks for the benchmark, against exact integer arithmetic.

Each check takes the bytes a CLI call wrote and returns a list of problems;
an empty list means the output is correct. Nothing here imports the package:
classical weights are re-derived from the generator's own counts, and tail
probabilities are exact big-integer binomial sums, as in the test suite's
exact references.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, log

from workloads import Corpus, GridPoint, Invocation

TSV_COLUMNS = (
    "term", "doc", "tf", "idf", "icf", "tfidf", "tficf",
    "neg_log_p", "q", "phi", "psi", "thm1_approx", "cor1_approx",
)
# Which scheme makes the CLI fill each column.
COLUMN_SCHEMES = {
    "idf": {"idf"}, "icf": {"icf"}, "tfidf": {"tfidf"}, "tficf": {"tficf"},
    "neg_log_p": {"fisher"}, "q": {"phi", "psi", "approximations"},
    "phi": {"phi", "approximations"}, "psi": {"psi", "approximations"},
    "thm1_approx": {"approximations"}, "cor1_approx": {"approximations"},
}
SAMPLED_CELLS = 12  # per weigh output, plus its largest-count cell
MAX_PROBLEMS = 20


def _close(printed: float, exact: float) -> bool:
    """Agreement within the six printed decimals (half a unit, plus float slack)."""
    return abs(printed - exact) <= 5e-7 + 1e-9 * max(1.0, abs(exact))


def exact_tail(k: int, K: int, s: int, N: int) -> Fraction:
    """P(X >= k) for X hypergeometric(K, s, N), as an exact rational.

    Terms C(K, t) * C(N - K, s - t) are stepped with exact integer updates
    from t = k, so a wide support costs no repeated big binomials.
    """
    lo, hi = max(0, s - (N - K)), min(K, s)
    if k <= lo:
        return Fraction(1)
    if k > hi:
        return Fraction(0)
    a, b = comb(K, k), comb(N - K, s - k)
    total = 0
    for t in range(k, hi + 1):
        total += a * b
        if t < hi:
            a = a * (K - t) // (t + 1)
            b = b * (s - t) // (N - K - s + t + 1)
    return Fraction(total, comb(N, s))


def _log(value: Fraction) -> float:
    return log(value.numerator) - log(value.denominator)


def exact_neg_log_p(n_ij: int, n_i: int, n_j: int, n: int) -> float:
    tail = exact_tail(n_ij, n_i, n_j, n)
    return 0.0 if tail == 1 else -_log(tail)


def exact_q(n_ij: int, n_i: int, n_j: int, n: int) -> float:
    """P(X >= n_ij + 1) / b(n_ij; n_j, n_i / n), exactly, then rounded once."""
    tail = exact_tail(n_ij + 1, n_i, n_j, n)
    if tail == 0:
        return 0.0
    binom = Fraction(comb(n_j, n_ij) * n_i**n_ij * (n - n_i) ** (n_j - n_ij), n**n_j)
    return float(tail / binom)


def classical(cell: tuple[int, int, int, int, int, int]) -> dict[str, float]:
    n_ij, n_i, _, n, b_i, d = cell
    idf_v = log(d) - log(b_i)
    icf_v = log(n) - log(n_i)
    return {"idf": idf_v, "icf": icf_v, "tfidf": n_ij * idf_v, "tficf": n_ij * icf_v}


def quotient_fields(cell: tuple[int, int, int, int, int, int]) -> dict[str, float]:
    """neg_log_p, q and the fields built on q, for one cell."""
    n_ij, n_i, n_j, n, b_i, d = cell
    base = classical(cell)
    q = exact_q(n_ij, n_i, n_j, n)
    p_ij, p_i = n_ij / n_j, n_i / n
    phi = n_ij * (log(n_ij) - log(n_j)) + (n_j - n_ij) * (p_i - p_ij) - q
    psi = -n_ij * (1.0 - b_i / d) * (1.0 - p_ij) - q
    return {
        "neg_log_p": exact_neg_log_p(n_ij, n_i, n_j, n), "q": q, "phi": phi, "psi": psi,
        "thm1_approx": base["tficf"] + phi, "cor1_approx": base["tfidf"] + psi,
    }


def _lines(data: bytes, problems: list[str]) -> list[str] | None:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        problems.append("output is not UTF-8")
        return None
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
        return None
    return text[:-1].split("\n")


def _expected_cells(corpus: Corpus) -> list[tuple[str, str]]:
    """Document-major, then by term index (first-seen order)."""
    index = corpus.term_index
    return [
        (term, doc)
        for doc, counts in zip(corpus.doc_ids, corpus.counts)
        for term in sorted(counts, key=index.__getitem__)
    ]


def check_weigh(data: bytes, corpus: Corpus, schemes: frozenset[str], sample_seed: str) -> list[str]:
    problems: list[str] = []
    lines = _lines(data, problems)
    if lines is None:
        return problems
    if tuple(lines[0].split("\t")) != TSV_COLUMNS:
        return [f"unexpected header {lines[0]!r}"]
    rows = [line.split("\t") for line in lines[1:]]
    expected = _expected_cells(corpus)
    if [(r[0], r[1]) for r in rows] != expected:
        return [f"cells or their order differ: {len(rows)} rows, expected {len(expected)}"]
    wanted = [c for c in TSV_COLUMNS[3:] if COLUMN_SCHEMES[c] & schemes]
    skipped = [c for c in TSV_COLUMNS[3:] if c not in wanted]
    col = {name: k for k, name in enumerate(TSV_COLUMNS)}
    doc_pos = {doc: j for j, doc in enumerate(corpus.doc_ids)}

    def compare(row: list[str], exact: dict[str, float]) -> None:
        for name, value in exact.items():
            if name not in wanted:
                continue
            printed = row[col[name]]
            if printed == "NA" or not _close(float(printed), value):
                problems.append(f"{row[0]}/{row[1]} {name}: printed {printed}, exact {value!r}")

    for row in rows:
        if len(problems) >= MAX_PROBLEMS:
            return problems
        cell = corpus.cell(row[0], doc_pos[row[1]])
        if row[2] != str(cell[0]):
            problems.append(f"{row[0]}/{row[1]} tf: printed {row[2]}, exact {cell[0]}")
        if any(row[col[name]] != "NA" for name in skipped):
            problems.append(f"{row[0]}/{row[1]}: a column outside the schemes is not NA")
        compare(row, classical(cell))
    if set(wanted) - {"idf", "icf", "tfidf", "tficf"}:
        rng = random.Random(sample_seed)
        sample = rng.sample(range(len(rows)), min(SAMPLED_CELLS, len(rows)))
        sample.append(max(range(len(rows)), key=lambda k: int(rows[k][2])))
        for k in sample:
            compare(rows[k], quotient_fields(corpus.cell(rows[k][0], doc_pos[rows[k][1]])))
    return problems


def check_rank(data: bytes, corpus: Corpus, top_k: int) -> list[str]:
    """Top-k by fisher weight per document, against exact weights of every cell.

    Terms whose exact weights agree to 1e-9 may appear in either order, since
    the printed scores cannot separate them.
    """
    problems: list[str] = []
    lines = _lines(data, problems)
    if lines is None:
        return problems
    if lines[0] != "doc\trank\tterm\tscore":
        return [f"unexpected header {lines[0]!r}"]
    printed: dict[str, list[tuple[int, str, float]]] = {}
    for line in lines[1:]:
        doc, rank, term, score = line.split("\t")
        printed.setdefault(doc, []).append((int(rank), term, float(score)))
    if list(printed) != [doc for doc, counts in zip(corpus.doc_ids, corpus.counts) if counts]:
        return ["documents missing or out of order"]
    memo: dict[tuple[int, int, int, int], float] = {}
    for j, doc in enumerate(corpus.doc_ids):
        exact = {}
        for term in corpus.counts[j]:
            key = corpus.cell(term, j)[:4]
            if key not in memo:
                memo[key] = exact_neg_log_p(*key)
            exact[term] = memo[key]
        want = sorted(exact, key=lambda t: (-exact[t], t))[:top_k]
        got = printed.get(doc, [])
        if [r for r, _, _ in got] != list(range(1, len(want) + 1)):
            problems.append(f"{doc}: ranks {[r for r, _, _ in got]}, expected 1..{len(want)}")
            continue
        for (_, term, score), expected_term in zip(got, want):
            if term not in exact:
                problems.append(f"{doc}: ranked term {term!r} is not in the document")
            elif not _close(score, exact[term]):
                problems.append(f"{doc}/{term}: printed {score}, exact {exact[term]!r}")
            elif abs(exact[term] - exact[expected_term]) > 1e-9 * max(1.0, exact[term]):
                problems.append(f"{doc}: {term!r} ranked where {expected_term!r} belongs")
        if len({term for _, term, _ in got}) != len(got):
            problems.append(f"{doc}: a term is ranked twice")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_sweep(data: bytes, grid: list[GridPoint]) -> list[str]:
    """Every grid point in order, each q within 1e-9 relative of the exact quotient."""
    problems: list[str] = []
    lines = _lines(data, problems)
    if lines is None:
        return problems
    rows = [line.split(",") for line in lines[1:] if line.startswith("quotient,")]
    if len(rows) != len(grid):
        return [f"{len(rows)} quotient rows for {len(grid)} grid points"]
    for row, p in zip(rows, grid):
        if row[1] != f"n={p.n};n_i={p.n_i};n_j={p.n_j};n_ij={p.n_ij}":
            problems.append(f"grid point {row[1]} out of order")
            continue
        exact = exact_q(p.n_ij, p.n_i, p.n_j, p.n)
        if row[4] != "True" or abs(float(row[3]) - exact) > 1e-9 * exact:
            problems.append(f"{row[1]}: q printed {row[3]} ({row[4]}), exact {exact!r}")
    return problems


def check(inv: Invocation, data: bytes, sample_seed: str) -> list[str]:
    """Problems with one invocation's data stream (its exit code is checked apart)."""
    if inv.kind == "weigh":
        return check_weigh(data, inv.corpus, inv.schemes, sample_seed)
    if inv.kind == "rank":
        return check_rank(data, inv.corpus, inv.top_k)
    if inv.kind == "sweep":
        return check_sweep(data, inv.grid)
    return [] if data.strip() else ["empty output"]
