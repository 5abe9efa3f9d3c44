"""Numerical validation harness.

Reproduces the package's built-in reference tables (frozen known-good values
for the enrichment weight, TF-ICF/TF-IDF, and their corrected approximations
across eight parameter settings), sweeps the tail/binomial quotient over its
documented regime, and checks the convergence behavior of the approximations
on exclusive collections.

Reference values are regression oracles: tests re-derive each of them from
exact integer enumeration, so the frozen numbers are verified, not assumed.
"""

from __future__ import annotations

import csv
import io
from itertools import groupby
from math import exp
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import CellStats
from .errors import InvalidSyntheticSpecError
from .numerics import HypergeomParams, log_binom_pmf, log_hypergeom_pmf
from .weights import SCHEMES, WeightRecord, _plan, fisher_weight, q_ij, tfidf

TABLE_TOLERANCE = 5e-5  # match at four printed decimals

# formula -> its label in the text layout, in table order
FORMULAS = {
    "neg_log_p": "-log p",
    "tficf_phi": "tficf+phi",
    "tfidf_psi": "tfidf+psi",
    "tfidf": "tfidf",
}

# the order in which a setting lists its integers, here and in the CSV columns
_TABLE_PARAMS = ("n", "n_i", "b_i", "n_j", "n_ij", "d")


class TableRow(NamedTuple):
    """One setting's formula values and percentage gaps: frozen reference
    values in the settings below, computed ones from evaluate_setting."""

    block: str    # "small" / "large" / "typical"
    label: str    # "general" / "uniform" / "exclusive" / "case-1" / "case-2"
    params: CellStats
    values: Mapping[str, float]  # formula -> value
    deltas: Mapping[str, float]  # formula -> |delta %| against neg_log_p


def _setting(block, label, params, values, deltas) -> TableRow:
    params = CellStats(**dict(zip(_TABLE_PARAMS, params)))
    return TableRow(block, label, params, dict(zip(FORMULAS, values)), dict(zip(FORMULAS, deltas)))


# Six settings exercising the approximation bridges: "general" collections
# impose no structure; "uniform" collections have equal-length documents and
# a fixed per-document count for the focal term; "exclusive" collections let
# the focal term fill its documents entirely.
VALIDATION_SETTINGS: tuple[TableRow, ...] = (
    _setting(
        "small", "general", (1000, 150, 4, 100, 25, 20),
        (5.5429, 4.7111, 24.6764, 40.2359),
        (0.0, 17.6554, 77.5378, 86.2241),
    ),
    _setting(
        "small", "uniform", (1000, 100, 10, 25, 10, 40),
        (9.7407, 9.2446, 9.2446, 13.8629),
        (0.0, 5.3662, 5.3662, 29.7354),
    ),
    _setting(
        "small", "exclusive", (1000, 160, 8, 20, 20, 50),
        (37.6993, 36.6516, 36.6516, 36.6516),
        (0.0, 2.8584, 2.8584, 2.8584),
    ),
    _setting(
        "large", "general", (10000, 200, 20, 75, 15, 75),
        (24.8971, 23.6898, 10.9773, 19.8263),
        (0.0, 5.0964, 126.8048, 25.5758),
    ),
    _setting(
        "large", "uniform", (10000, 200, 8, 100, 25, 100),
        (46.7698, 45.8791, 45.8791, 63.1432),
        (0.0, 1.9414, 1.9414, 25.9306),
    ),
    _setting(
        "large", "exclusive", (10000, 1200, 15, 80, 80, 125),
        (171.9977, 169.6211, 169.6211, 169.6211),
        (0.0, 1.4012, 1.4012, 1.4012),
    ),
)

# Two settings closer to real corpora, where the approximations degrade.
TYPICAL_SETTINGS: tuple[TableRow, ...] = (
    _setting(
        "typical", "case-1", (10000, 125, 12, 75, 7, 175),
        (10.1385, 8.4774, 12.7487, 18.7592),
        (0.0, 19.5938, 20.4740, 45.9544),
    ),
    _setting(
        "typical", "case-2", (12500, 6, 3, 80, 2, 200),
        (7.4240, 5.9860, 6.4716, 8.3994),
        (0.0, 24.0226, 14.7178, 11.6125),
    ),
)


def evaluate_setting(setting: TableRow) -> TableRow:
    """The setting with the values and deltas computed from the record
    weigh_matrix gives its cell."""
    make, _, _ = _plan(SCHEMES)
    record = WeightRecord("", "", *make(setting.params, None))
    neg_log_p = record.neg_log_p
    values = dict(zip(FORMULAS, (neg_log_p, record.thm1_approx, record.cor1_approx, record.tfidf)))
    # gap relative to the formula of interest, as a percentage
    deltas = {name: abs(neg_log_p - v) / abs(v) * 100.0 for name, v in values.items()}
    return setting._replace(values=values, deltas=deltas)


def check_reference_tables() -> tuple[list[TableRow], list[str]]:
    """Recompute every setting, validation then typical, and compare every value
    and |delta %| against its reference. Each mismatch is the line that names
    it, e.g. "small/general tfidf: computed 40.2359, expected 41.2359"."""
    rows, mismatches = [], []
    for setting in VALIDATION_SETTINGS + TYPICAL_SETTINGS:
        rows.append(row := evaluate_setting(setting))
        for name in FORMULAS:
            for field, computed, expected in (
                (name, row.values[name], setting.values[name]),
                (f"delta:{name}", row.deltas[name], setting.deltas[name]),
            ):
                if abs(computed - expected) > TABLE_TOLERANCE:
                    mismatches.append(
                        f"{setting.block}/{setting.label} {field}: "
                        f"computed {computed:.4f}, expected {expected:.4f}"
                    )
    return rows, mismatches


# -- quotient sweep -----------------------------------------------------------


class QuotientPoint(NamedTuple):
    n: int
    n_i: int
    n_j: int
    n_ij: int

    def __str__(self) -> str:
        return f"n={self.n} n_i={self.n_i} n_j={self.n_j} n_ij={self.n_ij}"


_GRID_N = 10**6
_GRID_N_I = (500, 1000, 2000, 5000, 10000)
_GRID_N_J = (200, 400, 800, 1600, 3200)
_GRID_N_IJ = (20, 40, 80, 160, 320, 640)


def in_quotient_regime(point: QuotientPoint) -> bool:
    """The thresholds adopted for the quotient regime: the collection
    proportion is small, documents are long, and the focal count sits well
    inside the document while dominating the collection proportion tenfold.
    Each proportion test is cross-multiplied, so it is decided exactly."""
    n, n_i, n_j, n_ij = point
    return (
        n_ij <= min(n_i, n_j)
        and 100 * n_i <= n  # p_i <= 0.01
        and n_j >= 200
        and n_ij >= 20
        and n_j - n_ij >= 20
        and 10 * n_i * n_j <= n_ij * n  # 10 p_i <= p_ij
    )


def default_quotient_grid() -> list[QuotientPoint]:
    """Every lattice point of the built-in grid that satisfies the regime."""
    return [
        point
        for n_i in _GRID_N_I
        for n_j in _GRID_N_J
        for n_ij in _GRID_N_IJ
        if in_quotient_regime(point := QuotientPoint(_GRID_N, n_i, n_j, n_ij))
    ]


class QuotientResult(NamedTuple):
    point: QuotientPoint
    q: float | None
    ok: bool
    note: str = ""


class QuotientSweepReport(NamedTuple):
    results: tuple[QuotientResult, ...]

    @property
    def reasons(self) -> tuple[str, ...]:
        """Why the sweep failed: no point, or each point outside the band."""
        if not self.results:
            return ("quotient sweep checked no point",)
        return tuple(f"quotient at {r.point}: q={r.q} {r.note}" for r in self.results if not r.ok)


def lemma1_sweep(grid: Iterable[QuotientPoint] | None = None) -> QuotientSweepReport:
    """Evaluate the tail/binomial quotient at every grid point.

    A point passes when 0 < q < 1 (equivalently, the per-draw difference
    d_ij = -ln(q)/n_j is positive). Out-of-band values and evaluation errors
    are recorded as failures, never raised.
    """
    points = default_quotient_grid() if grid is None else list(grid)
    results = []
    for point in points:
        n, n_i, n_j, n_ij = point
        try:
            stats = CellStats(
                n_ij=n_ij, n_i=n_i, n_j=n_j, n=n, b_i=1, d=max(1, n // n_j)
            )
            q = q_ij(stats)
        except (ValueError, ArithmeticError) as exc:  # ZeroDivisionError, OverflowError
            results.append(QuotientResult(point, None, False, str(exc)))
            continue
        ok = 0.0 < q < 1.0
        results.append(QuotientResult(point, q, ok, "" if ok else "q outside (0, 1)"))
    return QuotientSweepReport(results=tuple(results))


# -- convergence checks -------------------------------------------------------

COR2_BAND = (1.8, 2.2)   # bounds on e_d / e_2d
COR2_MIN_D = 100         # the smallest d whose doubling is held against the band
DECAY_BAND = (1.6, 2.4)  # bounds on gap_N / gap_2N


def _too_large(**counts: int) -> InvalidSyntheticSpecError:
    """The error for counts past the float range of the kernel's arithmetic."""
    named = ", ".join(f"{name} = {value}" for name, value in counts.items())
    return InvalidSyntheticSpecError(f"{named}: too large for float arithmetic")


def _halving_ratios(
    pairs: Sequence[tuple[int, float]], band: tuple[float, float], min_size: int
) -> list[tuple[float | None, bool | None]]:
    """(ratio, ratio_ok) for each (size, value) pair. Where the size is twice
    that of the pair before, itself at least min_size, the ratio is the value
    before over this one (inf over 0) and ratio_ok holds it against band;
    elsewhere both are None."""
    walked: list[tuple[float | None, bool | None]] = []
    for before, (size, value) in zip([None, *pairs], pairs):
        if before is None or before[0] * 2 != size or before[0] < min_size:
            walked.append((None, None))
        else:
            ratio = before[1] / value if value > 0.0 else float("inf")
            walked.append((ratio, band[0] <= ratio <= band[1]))
    return walked


class ConvergencePoint(NamedTuple):
    d: int
    b_i: int
    error: float
    ratio: float | None  # previous error / this error, for consecutive doublings
    ratio_ok: bool | None


class ConvergenceReport(NamedTuple):
    R: int
    beta: float
    points: tuple[ConvergencePoint, ...]

    @property
    def reasons(self) -> tuple[str, ...]:
        """Why the check failed: no ratio checked, or the errors rise or a
        ratio falls outside the band."""
        if all(p.ratio_ok is None for p in self.points):
            return ("convergence checked no doubling pair",)
        errors = [p.error for p in self.points]
        falling = all(a > b for a, b in zip(errors, errors[1:]))
        if not falling or any(p.ratio_ok is False for p in self.points):
            return ("convergence errors not halving as required",)
        return ()


def cor2_convergence(R: int, beta: float, doublings: Sequence[int]) -> ConvergenceReport:
    """Gap between the enrichment weight and TF-IDF on exclusive collections.

    For each document count d, the collection has d documents of R terms
    each, and the focal term fills b_i = beta * d of them. Its cell in one of
    those is fixed by (R, b_i, d): n_ij = n_j = R, n_i = R * b_i, n = R * d.
    Evaluates e_d = |(-log p) - tfidf| at that cell, and checks that errors fall
    roughly in half per doubling of d: the ratio e_d / e_2d must lie in
    COR2_BAND for consecutive doublings with d >= COR2_MIN_D.

    The containing fraction b_i/d stays fixed as d grows; with b_i fixed
    instead, the error floor would be set by b_i rather than d.
    """
    if not 0.0 < beta <= 1.0:  # also rejects nan
        raise InvalidSyntheticSpecError(f"beta = {beta} is not in (0, 1]")
    if R < 1:
        raise InvalidSyntheticSpecError(f"R = {R} is not a positive document length")
    cells: list[tuple[int, int, float]] = []  # (d, b_i, error)
    for d in doublings:
        try:
            b_float = beta * d
            b = round(b_float)
            if abs(b_float - b) > 1e-9 or not 1 <= b <= d:
                raise InvalidSyntheticSpecError(f"beta * d = {b_float} is not a valid document count")
            stats = CellStats(n_ij=R, n_i=R * b, n_j=R, n=R * d, b_i=b, d=d)
            cells.append((d, b, abs(fisher_weight(stats) - tfidf(stats))))
        except OverflowError:
            raise _too_large(R=R, d=d) from None
    ratios = _halving_ratios([(d, error) for d, _, error in cells], COR2_BAND, COR2_MIN_D)
    points = tuple(ConvergencePoint(*cell, *ratio) for cell, ratio in zip(cells, ratios))
    return ConvergenceReport(R=R, beta=beta, points=points)


class DecayPoint(NamedTuple):
    N: int
    K: int
    gap: float
    ratio: float | None
    ratio_ok: bool | None


class DecayReport(NamedTuple):
    p: float
    k: int
    s: int
    points: tuple[DecayPoint, ...]

    @property
    def reasons(self) -> tuple[str, ...]:
        """Why the check failed: no ratio checked, or a ratio outside the band."""
        if all(p.ratio_ok is None for p in self.points):
            return ("pmf decay checked no doubling pair",)
        if any(p.ratio_ok is False for p in self.points):
            return ("pmf gap not halving as required",)
        return ()


def binomial_decay_check(p_i: float, k: int, s: int, Ns: Sequence[int]) -> DecayReport:
    """Gap between hypergeometric and binomial masses as the population grows.

    At fixed p_i = K/N, the pointwise PMF gap decays like 1/N, so doubling N
    must shrink it by a factor inside DECAY_BAND.
    """
    if k < 0 or s < 0:
        raise InvalidSyntheticSpecError(f"need k >= 0 and s >= 0, got k={k}, s={s}")
    try:
        binom = 0.0 if k > s else exp(log_binom_pmf(k, s, p_i))
    except OverflowError:
        raise _too_large(s=s) from None
    cells: list[tuple[int, int, float]] = []  # (N, K, gap)
    for N in Ns:
        try:
            K_float = p_i * N
            K = round(K_float)
            if abs(K_float - K) > 1e-9 or not 0 <= K <= N:
                raise InvalidSyntheticSpecError(f"p_i * N = {K_float} is not a valid success count")
            hyper = exp(log_hypergeom_pmf(HypergeomParams(k=k, K=K, s=min(s, N), N=N)))
        except OverflowError:
            raise _too_large(N=N, s=s) from None
        cells.append((N, K, abs(hyper - binom)))
    ratios = _halving_ratios([(N, gap) for N, _, gap in cells], DECAY_BAND, 0)
    points = tuple(DecayPoint(*cell, *ratio) for cell, ratio in zip(cells, ratios))
    return DecayReport(p=p_i, k=k, s=s, points=points)


# -- rendering ----------------------------------------------------------------


def _format_block(title: str, rows: Sequence[TableRow]) -> str:
    label_w, col_w = 12, 11
    lines = [f"== {title} =="]
    header_params = [
        ([f"n={r.params.n}" for r in rows], [f"n_j={r.params.n_j}" for r in rows]),
        ([f"n_i={r.params.n_i}" for r in rows], [f"n_ij={r.params.n_ij}" for r in rows]),
        ([f"b_i={r.params.b_i}" for r in rows], [f"d={r.params.d}" for r in rows]),
    ]
    name_line = " " * label_w + "".join(f"{r.label:<{2 * col_w}}" for r in rows)
    lines.append(name_line.rstrip())
    for left, right in header_params:
        line = " " * label_w + "".join(
            f"{a:<{col_w}}{b:<{col_w}}" for a, b in zip(left, right)
        )
        lines.append(line.rstrip())
    sub = " " * label_w + "".join(f"{'result':<{col_w}}{'|delta%|':<{col_w}}" for _ in rows)
    lines.append(sub.rstrip())
    for name, formula_label in FORMULAS.items():
        cells = "".join(
            f"{row.values[name]:<{col_w}.4f}{row.deltas[name]:<{col_w}.4f}" for row in rows
        )
        lines.append(f"{formula_label:<{label_w}}{cells}".rstrip())
    return "\n".join(lines)


_BLOCK_TITLES = {
    "small": "Reference settings: small collections",
    "large": "Reference settings: large collections",
    "typical": "Typical-data settings",
}


def render_tables_text(rows: Sequence[TableRow]) -> str:
    """Human-readable layout: one block per run of rows that share a block."""
    blocks = [
        _format_block(_BLOCK_TITLES[block], list(run))
        for block, run in groupby(rows, key=lambda row: row.block)
    ]
    return "\n\n".join(blocks) + "\n"


def render_tables_csv(rows: Sequence[TableRow]) -> str:
    """Machine-readable mirror of the same numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["block", "setting", *_TABLE_PARAMS, "formula", "value", "delta_pct"])
    for row in rows:
        params = [getattr(row.params, field) for field in _TABLE_PARAMS]
        for name in FORMULAS:
            writer.writerow(
                [row.block, row.label, *params, name,
                 f"{row.values[name]:.4f}", f"{row.deltas[name]:.4f}"]
            )
    return buf.getvalue()


def _ratio_text(point: ConvergencePoint | DecayPoint) -> str:
    if point.ratio is None:
        return "ratio=n/a"
    return f"ratio={point.ratio:.4f}" + ("" if point.ratio_ok else "  <- outside band")


def render_sweep_text(
    quotient: QuotientSweepReport, convergence: ConvergenceReport, decay: DecayReport
) -> str:
    verdicts = ["FAIL" if report.reasons else "PASS" for report in (quotient, convergence, decay)]
    qs = [r.q for r in quotient.results if r.q is not None]
    q_range = f"[{min(qs, default=float('nan')):.3e}, {max(qs, default=float('nan')):.6f}]"
    lines = [f"quotient sweep: {len(quotient.results)} points, q in {q_range} -> {verdicts[0]}"]
    lines += (f"  FAIL {r.point}: q={r.q} {r.note}" for r in quotient.results if not r.ok)
    lines += ["", f"exclusive-collection convergence: R={convergence.R} beta={convergence.beta}"]
    lines += (f"  d={p.d:<6d} b_i={p.b_i:<5d} error={p.error:.8f} {_ratio_text(p)}" for p in convergence.points)
    lines += [f"  halving band {COR2_BAND} -> {verdicts[1]}", ""]
    lines.append(f"pmf decay: p={decay.p} k={decay.k} s={decay.s}")
    lines += (f"  N={p.N:<8d} gap={p.gap:.6e} {_ratio_text(p)}" for p in decay.points)
    lines += [f"  halving band {DECAY_BAND} -> {verdicts[2]}", ""]
    lines.append(f"sweep summary: {verdicts.count('PASS')}/3 checks passed")
    return "\n".join(lines) + "\n"


def render_sweep_csv(
    quotient: QuotientSweepReport, convergence: ConvergenceReport, decay: DecayReport
) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "point", "metric", "value", "ok"])
    for result in quotient.results:
        p = result.point
        point = f"n={p.n};n_i={p.n_i};n_j={p.n_j};n_ij={p.n_ij}"
        value = "" if result.q is None else repr(result.q)
        writer.writerow(["quotient", point, "q", value, result.ok])
    for cp in convergence.points:
        writer.writerow(["convergence", f"d={cp.d};b_i={cp.b_i}", "error", repr(cp.error), True])
        if cp.ratio is not None:
            writer.writerow(["convergence", f"d={cp.d};b_i={cp.b_i}", "ratio", repr(cp.ratio), cp.ratio_ok])
    for dp in decay.points:
        writer.writerow(["decay", f"N={dp.N};K={dp.K}", "gap", repr(dp.gap), True])
        if dp.ratio is not None:
            writer.writerow(["decay", f"N={dp.N};K={dp.K}", "ratio", repr(dp.ratio), dp.ratio_ok])
    return buf.getvalue()
