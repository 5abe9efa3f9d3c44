"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Tolerances and runtime budgets are pinned here and nowhere
else; they are not calibration knobs.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import comb, exp, log
from pathlib import Path

from exact_refs import chvatal_log_bound, focal_stats, neg_log_tail, tail_fraction
from termfisher.corpus import CellStats
from termfisher.numerics import (
    NEG_INFINITY,
    HypergeomParams,
    log_hypergeom_pmf,
    log_hypergeom_tail,
)
from termfisher.verify import (
    FORMULAS,
    TYPICAL_SETTINGS,
    VALIDATION_SETTINGS,
    binomial_decay_check,
    cor2_convergence,
    default_quotient_grid,
    evaluate_setting,
    lemma1_sweep,
)
from termfisher.weights import phi, psi, q_ij, tfidf, tficf

DATA = Path(__file__).parent / "data"
TABLE_TOL = 5e-5


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_c01_validation_table_values():
    start = time.perf_counter()
    rows = [evaluate_setting(s) for s in VALIDATION_SETTINGS]
    elapsed = time.perf_counter() - start
    bad = [
        (s.block, s.label, name, row.values[name], s.values[name])
        for s, row in zip(VALIDATION_SETTINGS, rows)
        for name in FORMULAS
        if abs(row.values[name] - s.values[name]) > TABLE_TOL
    ]
    ok = not bad and elapsed < 1.0
    _report(
        "C01 validation-table values",
        ok,
        f"24 values at +/-{TABLE_TOL}, {elapsed:.3f}s" + (f"; mismatches: {bad}" if bad else ""),
    )


def test_c02_delta_values_both_tables():
    start = time.perf_counter()
    rows = [evaluate_setting(s) for s in VALIDATION_SETTINGS + TYPICAL_SETTINGS]
    elapsed = time.perf_counter() - start
    settings = VALIDATION_SETTINGS + TYPICAL_SETTINGS
    checked = 0
    bad = []
    for s, row in zip(settings, rows):
        for name in FORMULAS:
            if s.deltas[name] == 0.0:
                continue
            checked += 1
            if abs(row.deltas[name] - s.deltas[name]) > TABLE_TOL:
                bad.append((s.block, s.label, name, row.deltas[name], s.deltas[name]))
    ok = checked == 24 and not bad and elapsed < 1.0
    _report(
        "C02 percentage-gap values",
        ok,
        f"{checked} nonzero gaps at +/-{TABLE_TOL} (formula denominator), {elapsed:.3f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_c03_typical_table_values():
    rows = [evaluate_setting(s) for s in TYPICAL_SETTINGS]
    bad = [
        (s.label, name, row.values[name], s.values[name])
        for s, row in zip(TYPICAL_SETTINGS, rows)
        for name in FORMULAS
        if abs(row.values[name] - s.values[name]) > TABLE_TOL
    ]
    _report(
        "C03 typical-table values",
        not bad,
        "8 values at 4 decimals" + (f"; mismatches: {bad}" if bad else ""),
    )


def test_c04_tail_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_norm = 0.0
    tails_checked = 0
    oracle_crosschecks = 0
    for N in range(1, 61):
        for K in range(N + 1):
            for s in range(N + 1):
                lo, hi = max(0, s - (N - K)), min(K, s)
                denom = comb(N, s)
                nums = [comb(K, t) * comb(N - K, s - t) for t in range(lo, hi + 1)]

                total = 0.0
                for t in range(lo, hi + 1):
                    total += exp(log_hypergeom_pmf(HypergeomParams(t, K, s, N)))
                worst_norm = max(worst_norm, abs(total - 1.0))

                suffix = 0
                exact_tail = {}
                for t in range(hi, lo - 1, -1):
                    suffix += nums[t - lo]
                    exact_tail[t] = suffix
                for k in range(0, hi + 2):
                    # the pair (ln P(X >= k), ln P(X >= k - 1))
                    pair = log_hypergeom_tail(HypergeomParams(k, K, s, N))
                    for value, bound in zip(pair, (k, k - 1)):
                        tails_checked += 1
                        if bound > hi:
                            assert value == NEG_INFINITY
                            continue
                        exact = 1.0 if bound <= lo else exact_tail[bound] / denom
                        rel = abs(exp(value) - exact) / exact
                        worst_rel = max(worst_rel, rel)
                # tie the fast integer suffix sums back to the oracle function
                if N <= 12 or (K * 31 + s) % 53 == 0:
                    for k in range(max(lo, 0), hi + 2):
                        expected = (
                            Fraction(exact_tail[k], denom) if k <= hi else Fraction(0)
                        )
                        if k <= lo:
                            expected = Fraction(1)
                        assert tail_fraction(k, K, s, N) == expected
                        oracle_crosschecks += 1
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-10 and worst_norm < 1e-12 and elapsed < 30.0
    _report(
        "C04 oracle equivalence (N <= 60)",
        ok,
        f"{tails_checked} tails, worst rel {worst_rel:.2e} (< 1e-10), "
        f"worst norm {worst_norm:.2e} (< 1e-12), "
        f"{oracle_crosschecks} oracle cross-checks, {elapsed:.1f}s (< 30s)",
    )


def test_c05_quotient_band_on_regime_grid():
    grid = default_quotient_grid()
    report = lemma1_sweep(grid)
    qs = [r.q for r in report.results if r.q is not None]
    q_min, q_max = min(qs, default=float("nan")), max(qs, default=float("nan"))
    ok = len(grid) >= 100 and not report.reasons and 0.0 < q_min <= q_max < 1.0
    _report(
        "C05 quotient in (0,1) on regime grid",
        ok,
        f"{len(grid)} points, q in [{q_min:.3e}, {q_max:.6f}], "
        f"failures: {sum(not r.ok for r in report.results)}",
    )


def test_c06_exclusive_collection_convergence():
    start = time.perf_counter()
    report = cor2_convergence(20, 0.2, (100, 200, 400, 800))
    elapsed = time.perf_counter() - start
    ratios = [p.ratio for p in report.points if p.ratio is not None]
    errors = [p.error for p in report.points]
    ok = (
        all(a > b for a, b in zip(errors, errors[1:]))
        and len(ratios) == 3
        and all(1.8 <= r <= 2.2 for r in ratios)
        and elapsed < 5.0
    )
    _report(
        "C06 error halving on exclusive collections",
        ok,
        f"errors {[f'{p.error:.6f}' for p in report.points]}, "
        f"ratios {[f'{r:.4f}' for r in ratios]} in [1.8, 2.2], {elapsed:.2f}s (< 5s)",
    )


def test_c07_uniform_collection_bridge_consistency():
    # (R, r, b_i, d): d documents of R terms, r of them the focal term in each of b_i documents
    collections = [
        (25, 10, 10, 40),    # the small reference setting
        (100, 25, 8, 100),   # the large reference setting
        (50, 5, 6, 30),
        (40, 8, 4, 50),
        (30, 3, 12, 60),
        (60, 6, 20, 100),
    ]
    worst = 0.0
    printed = []
    for R, r, b_i, d in collections:
        stats = focal_stats(CellStats(n_ij=r, n_i=r * b_i, n_j=R, n=R * d, b_i=b_i, d=d))
        thm1 = tficf(stats) + phi(stats, q_ij(stats))
        cor1 = tfidf(stats) + psi(stats, q_ij(stats))
        worst = max(worst, abs(thm1 - cor1))
        printed.append(thm1)
    ok = worst < 1e-9
    ok = ok and abs(printed[0] - 9.2446) < TABLE_TOL and abs(printed[1] - 45.8791) < TABLE_TOL
    _report(
        "C07 bridge identity on uniform collections",
        ok,
        f"max |thm1 - cor1| = {worst:.2e} (< 1e-9); "
        f"reference columns {printed[0]:.4f} and {printed[1]:.4f}",
    )


def test_c08_binomial_limit_decay():
    report = binomial_decay_check(0.1, 5, 20, (200, 400, 800, 1600))
    ratios = [p.ratio for p in report.points if p.ratio is not None]
    ok = len(ratios) == 3 and all(1.6 <= r <= 2.4 for r in ratios)
    _report(
        "C08 pmf gap halving per doubling",
        ok,
        f"ratios {[f'{r:.4f}' for r in ratios]} in [1.6, 2.4]",
    )


def test_c09_tail_bound_dominance():
    start = time.perf_counter()
    points = 0
    violations = []
    for N in (10, 25, 50, 100, 150, 200):
        k_step = max(1, N // 12)
        for K in range(1, N, k_step):
            for s in range(2, N, k_step):
                for n_ij in range(0, min(K, s), max(1, s // 8)):
                    # exact-integer applicability: p_i <= p_check < 1
                    if K * s > (n_ij + 1) * N or n_ij + 1 >= s:
                        continue
                    stats = CellStats(n_ij=n_ij, n_i=K, n_j=s, n=N, b_i=1, d=1)
                    bound = chvatal_log_bound(stats)
                    exact = tail_fraction(n_ij + 1, K, s, N)
                    if exact == 0:
                        continue  # empty tail: any bound dominates
                    exact_log = log(exact.numerator) - log(exact.denominator)
                    points += 1
                    if bound < exact_log:
                        violations.append((N, K, s, n_ij, bound, exact_log))
    elapsed = time.perf_counter() - start
    ok = points > 1000 and not violations
    _report(
        "C09 exponential bound dominates exact tail (N <= 200)",
        ok,
        f"{points} applicable points, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_c10_cli_end_to_end():
    golden = (DATA / "golden_weigh.tsv").read_bytes()
    weigh = subprocess.run(
        [
            sys.executable, "-m", "termfisher", "weigh",
            "--input", str(DATA / "corpus.jsonl"), "--format", "jsonl",
        ],
        capture_output=True,
    )
    table = subprocess.run(
        [sys.executable, "-m", "termfisher", "table"], capture_output=True
    )
    ok = weigh.returncode == 0 and weigh.stdout == golden and table.returncode == 0
    _report(
        "C10 CLI golden output and table check",
        ok,
        f"weigh exit {weigh.returncode}, golden bytes "
        f"{'match' if weigh.stdout == golden else 'DIFFER'}, table exit {table.returncode}",
    )
