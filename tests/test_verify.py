"""Tests for the validation harness: tables, sweeps, convergence checks."""

import csv
import io
from fractions import Fraction
from math import comb, isclose, log
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import termfisher.weights
from exact_refs import (
    binom_pmf_fraction,
    chvatal_log_bound,
    embed_cell_counts,
    focal_stats,
    neg_log_tail,
    pmf_fraction,
    w_binomial,
    w_hypergeom_bound,
)
from termfisher.corpus import CellStats, ingest_counts
from termfisher.errors import InvalidProbabilityError, InvalidSyntheticSpecError
from termfisher.verify import (
    FORMULAS,
    QuotientPoint,
    TYPICAL_SETTINGS,
    VALIDATION_SETTINGS,
    binomial_decay_check,
    check_reference_tables,
    cor2_convergence,
    default_quotient_grid,
    evaluate_setting,
    in_quotient_regime,
    lemma1_sweep,
    render_sweep_csv,
    render_sweep_text,
    render_tables_csv,
    render_tables_text,
)
from termfisher.weights import fisher_weight, phi, psi, q_ij, tfidf, tficf, weigh_matrix

DATA = Path(__file__).parent / "data"


class TestReferenceTables:
    def test_validation_values_match_frozen_references(self):
        rows = [evaluate_setting(s) for s in VALIDATION_SETTINGS]
        assert len(rows) == 6
        for setting, row in zip(VALIDATION_SETTINGS, rows):
            for name in FORMULAS:
                assert abs(row.values[name] - setting.values[name]) < 5e-5
                assert abs(row.deltas[name] - setting.deltas[name]) < 5e-5

    def test_typical_values_match_frozen_references(self):
        rows = [evaluate_setting(s) for s in TYPICAL_SETTINGS]
        assert len(rows) == 2
        for setting, row in zip(TYPICAL_SETTINGS, rows):
            for name in FORMULAS:
                assert abs(row.values[name] - setting.values[name]) < 5e-5
                assert abs(row.deltas[name] - setting.deltas[name]) < 5e-5

    def test_frozen_references_rederived_from_exact_arithmetic(self):
        # the frozen numbers themselves, re-derived with integer enumeration
        for setting in VALIDATION_SETTINGS + TYPICAL_SETTINGS:
            cell = setting.params
            exact_neg_log = neg_log_tail(cell.n_ij, cell.n_i, cell.n_j, cell.n)
            assert abs(exact_neg_log - setting.values["neg_log_p"]) < 5e-5
            exact_tfidf = cell.n_ij * (log(cell.d) - log(cell.b_i))
            assert abs(exact_tfidf - setting.values["tfidf"]) < 5e-5
            delta = abs(exact_neg_log - exact_tfidf) / abs(exact_tfidf) * 100.0
            assert abs(delta - setting.deltas["tfidf"]) < 5e-5

    def test_delta_convention_formula_denominator(self):
        row = evaluate_setting(VALIDATION_SETTINGS[0])
        expected = abs(row.values["neg_log_p"] - row.values["tfidf"]) / abs(row.values["tfidf"]) * 100
        assert row.deltas["tfidf"] == expected
        assert row.deltas["neg_log_p"] == 0.0

    def test_check_reports_no_mismatches(self):
        _, mismatches = check_reference_tables()
        assert mismatches == []

    def test_values_are_the_weigh_records_of_the_embedded_cell(self):
        for setting in VALIDATION_SETTINGS + TYPICAL_SETTINGS:
            matrix = ingest_counts(embed_cell_counts(setting.params))
            records = {(r.term, r.doc): r for r in weigh_matrix(matrix)}
            focal = records[("focal", "doc00000")]
            values = evaluate_setting(setting).values
            assert focal.neg_log_p == values["neg_log_p"]
            assert focal.thm1_approx == values["tficf_phi"]
            assert focal.cor1_approx == values["tfidf_psi"]
            assert focal.tfidf == values["tfidf"]

    def test_one_tail_evaluation_per_setting(self, monkeypatch):
        calls = []
        kernel = termfisher.weights.log_hypergeom_tail

        def counting(params, memo=None):
            calls.append(params)
            return kernel(params, memo)

        monkeypatch.setattr(termfisher.weights, "log_hypergeom_tail", counting)
        check_reference_tables()
        assert len(calls) == len(VALIDATION_SETTINGS + TYPICAL_SETTINGS) == 8

    def test_injected_perturbation_is_caught(self, monkeypatch):
        expected = VALIDATION_SETTINGS[0].values  # small/general
        monkeypatch.setitem(expected, "tfidf", expected["tfidf"] + 1.0)
        _, mismatches = check_reference_tables()
        assert len(mismatches) == 1
        assert mismatches == ["small/general tfidf: computed 40.2359, expected 41.2359"]

    def test_injected_delta_perturbation_is_caught(self, monkeypatch):
        expected_delta = TYPICAL_SETTINGS[1].deltas  # typical/case-2
        monkeypatch.setitem(expected_delta, "tfidf_psi", expected_delta["tfidf_psi"] + 0.5)
        _, mismatches = check_reference_tables()
        assert mismatches == ["typical/case-2 delta:tfidf_psi: computed 14.7178, expected 15.2178"]

    def test_rendering_is_byte_stable(self):
        first = render_tables_text(check_reference_tables()[0])
        second = render_tables_text(check_reference_tables()[0])
        assert first == second
        assert "5.5429" in first and "171.9977" in first

    def test_csv_mirror_parses_and_matches(self):
        out = render_tables_csv(check_reference_tables()[0])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8 * len(FORMULAS)
        lookup = {(r["block"], r["setting"], r["formula"]): r for r in rows}
        assert lookup[("small", "general", "neg_log_p")]["value"] == "5.5429"
        assert lookup[("small", "general", "tfidf")]["delta_pct"] == "86.2241"
        assert lookup[("typical", "case-2", "tficf_phi")]["delta_pct"] == "24.0226"

    @pytest.mark.parametrize(
        "render, golden",
        [(render_tables_text, "golden_table.txt"), (render_tables_csv, "golden_table.csv")],
    )
    def test_frozen_rows_render_the_golden_bytes(self, render, golden):
        # the reference values themselves print the tables, with no kernel call
        out = render(VALIDATION_SETTINGS + TYPICAL_SETTINGS)
        assert out.encode("utf-8") == (DATA / golden).read_bytes()


class TestPerDrawQuantities:
    def test_w_binomial_zero_count(self):
        stats = CellStats(n_ij=0, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        from math import log1p

        assert isclose(w_binomial(stats), log1p(-0.15), rel_tol=1e-12)

    def test_w_binomial_exact_rational(self):
        stats = CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        exact = binom_pmf_fraction(25, 100, Fraction(150, 1000))
        assert isclose(w_binomial(stats), (log(exact.numerator) - log(exact.denominator)) / 100, rel_tol=1e-11)

    def test_w_binomial_central(self):
        stats = CellStats(n_ij=50, n_i=500, n_j=100, n=1000, b_i=4, d=20)
        exact = binom_pmf_fraction(50, 100, Fraction(1, 2))
        assert isclose(w_binomial(stats), (log(exact.numerator) - log(exact.denominator)) / 100, rel_tol=1e-11)

    def test_w_binomial_requires_interior_probability(self):
        stats = CellStats(n_ij=3, n_i=30, n_j=10, n=30, b_i=1, d=3)  # p_i = 1
        with pytest.raises(InvalidProbabilityError):
            w_binomial(stats)

    def test_w_hypergeom_bound_equals_scaled_bound(self):
        stats = CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        assert w_hypergeom_bound(stats) == chvatal_log_bound(stats) / 100

    def test_w_hypergeom_bound_two_term_expression(self):
        stats = CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        p_i, pc = stats.p_i, stats.p_ij + 1.0 / stats.n_j
        direct = pc * log(p_i / pc) + (1 - pc) * log((1 - p_i) / (1 - pc))
        assert isclose(w_hypergeom_bound(stats), direct, rel_tol=1e-12)

    def test_w_hypergeom_bound_zero_at_equality(self):
        stats = CellStats(n_ij=0, n_i=1, n_j=10, n=10, b_i=1, d=1)
        assert w_hypergeom_bound(stats) == 0.0

    def test_w_hypergeom_bound_dominates_scaled_tail(self):
        stats = CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        scaled_tail = -neg_log_tail(26, 150, 100, 1000) / 100
        assert w_hypergeom_bound(stats) >= scaled_tail

    def test_w_hypergeom_bound_inapplicable(self):
        stats = CellStats(n_ij=9, n_i=9, n_j=10, n=100, b_i=1, d=2)
        with pytest.raises(ValueError, match="requires p_check < 1"):
            w_hypergeom_bound(stats)


class TestQuotientSweep:
    def test_default_grid_is_large_and_in_regime(self):
        grid = default_quotient_grid()
        assert len(grid) >= 100
        assert all(in_quotient_regime(p) for p in grid)

    def test_regime_filter_excludes_balanced_proportions(self):
        assert not in_quotient_regime(QuotientPoint(n=1000, n_i=500, n_j=100, n_ij=50))

    def test_regime_boundary_is_decided_exactly(self):
        # 10 * p_i == p_ij exactly, although 304/100000 * 10 > 38/1250 in floats
        assert in_quotient_regime(QuotientPoint(n=100000, n_i=304, n_j=1250, n_ij=38))
        assert not in_quotient_regime(QuotientPoint(n=100000, n_i=304, n_j=1250, n_ij=37))

    def test_default_sweep_passes(self):
        report = lemma1_sweep()
        assert not report.reasons
        assert len(report.results) >= 100
        qs = [r.q for r in report.results if r.q is not None]
        assert 0.0 < min(qs) <= max(qs) < 1.0
        assert all(r.q is not None and 0.0 < r.q < 1.0 for r in report.results)

    def test_out_of_regime_point_reports_failure(self):
        report = lemma1_sweep([QuotientPoint(n=1000, n_i=500, n_j=100, n_ij=50)])
        assert report.reasons
        (failure,) = [r for r in report.results if not r.ok]
        assert failure.q is not None and failure.q > 1.0

    def test_empty_grid_does_not_pass(self):
        report = lemma1_sweep([])
        assert report.results == ()
        assert report.reasons

    def test_invalid_point_reported_not_raised(self):
        report = lemma1_sweep([QuotientPoint(n=100, n_i=500, n_j=10, n_ij=5)])
        assert report.reasons
        assert [r for r in report.results if not r.ok][0].note


class TestEmbedCellCounts:
    def test_all_reference_settings_embed_exactly(self):
        for setting in VALIDATION_SETTINGS + TYPICAL_SETTINGS:
            stats, cell = focal_stats(setting.params), setting.params
            assert (stats.n, stats.n_i, stats.b_i) == (cell.n, cell.n_i, cell.b_i)
            assert (stats.n_j, stats.n_ij, stats.d) == (cell.n_j, cell.n_ij, cell.d)

    def test_matrix_weights_agree_with_standalone_stats(self):
        stats = focal_stats(CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20))
        assert abs(fisher_weight(stats) - 5.5429) < 5e-5
        assert abs(tfidf(stats) - 40.2359) < 5e-5

    def test_impossible_embeddings_rejected(self):
        with pytest.raises(ValueError, match=r"b_i must lie in \[1, d\]"):
            CellStats(n_ij=8, n_i=10, n_j=20, n=100, b_i=5, d=4)  # b_i > d: no cell to embed
        with pytest.raises(InvalidSyntheticSpecError):
            embed_cell_counts(CellStats(n_ij=5, n_i=10, n_j=20, n=100, b_i=8, d=10))  # 5 left for 7 docs
        with pytest.raises(InvalidSyntheticSpecError):
            embed_cell_counts(CellStats(n_ij=2, n_i=9, n_j=8, n=10, b_i=2, d=3))  # n too small


class TestConvergence:
    def test_exclusive_collection_identity(self):
        # -log p on the exclusive collection reduces to a two-coefficient form
        R, b, d = 20, 10, 50
        stats = focal_stats(CellStats(n_ij=R, n_i=R * b, n_j=R, n=R * d, b_i=b, d=d))
        identity = log(comb(R * d, R)) - log(comb(R * b, R))
        assert isclose(fisher_weight(stats), identity, rel_tol=1e-11)

    def test_default_convergence_passes(self):
        report = cor2_convergence(20, 0.2, (100, 200, 400, 800))
        assert not report.reasons
        ratios = [p.ratio for p in report.points if p.ratio is not None]
        assert len(ratios) == 3
        assert all(1.8 <= r <= 2.2 for r in ratios)

    def test_small_d_has_no_ratio_check(self):
        report = cor2_convergence(20, 0.2, (50, 100))
        assert report.points[1].ratio is None  # 50 < COR2_MIN_D
        assert report.points[0].error > report.points[1].error

    def test_term_in_every_document_gives_zero_error(self):
        report = cor2_convergence(15, 1.0, (40,))
        assert report.points[0].error == 0.0
        assert report.reasons  # one d checks no doubling pair

    @pytest.mark.parametrize("doublings", [(), (400,), (50, 100), (100, 400)])
    def test_no_checked_ratio_does_not_pass(self, doublings):
        report = cor2_convergence(20, 0.2, doublings)
        assert all(p.ratio is None for p in report.points)
        errors = [p.error for p in report.points]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert report.reasons

    def test_single_document_collection(self):
        report = cor2_convergence(20, 1.0, (1,))
        assert report.points[0].error == 0.0

    def test_non_integral_b_rejected(self):
        with pytest.raises(InvalidSyntheticSpecError):
            cor2_convergence(20, 0.2, (111,))

    @pytest.mark.parametrize("R", [0, -3])
    def test_document_length_below_one_rejected(self, R):
        with pytest.raises(InvalidSyntheticSpecError, match=f"R = {R} "):
            cor2_convergence(R, 0.2, (100, 200))

    @given(st.integers(1, 40), st.integers(1, 64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_error_is_the_gap_at_the_embedded_focal_cell(self, R, d, data):
        b = data.draw(st.integers(1, d))
        (point,) = cor2_convergence(R, b / d, (d,)).points
        stats = focal_stats(CellStats(n_ij=R, n_i=R * b, n_j=R, n=R * d, b_i=b, d=d))
        assert point.b_i == b
        assert point.error == abs(fisher_weight(stats) - tfidf(stats))

    def test_a_billion_documents_pass_without_a_collection(self):
        # each d is one cell, evaluated from its integers, not a d-document collection
        report = cor2_convergence(20, 0.2, (10**9, 2 * 10**9))
        assert not report.reasons
        assert [p.b_i for p in report.points] == [2 * 10**8, 4 * 10**8]


class TestBinomialDecay:
    def test_default_decay_passes(self):
        report = binomial_decay_check(0.1, 5, 20, (200, 400, 800, 1600))
        assert not report.reasons
        ratios = [p.ratio for p in report.points if p.ratio is not None]
        assert len(ratios) == 3
        assert all(1.6 <= r <= 2.4 for r in ratios)

    def test_gap_ratios_match_exact_arithmetic(self):
        binom = binom_pmf_fraction(5, 20, Fraction(1, 10))
        report = binomial_decay_check(0.1, 5, 20, (200, 400))
        for point in report.points:
            exact_gap = abs(float(pmf_fraction(5, point.K, 20, point.N) - binom))
            assert isclose(point.gap, exact_gap, rel_tol=1e-9)

    def test_large_population_limit(self):
        report = binomial_decay_check(0.1, 5, 20, (10**6,))
        assert report.points[0].gap < 1e-6

    def test_k_beyond_sample_gives_zero_gaps(self):
        report = binomial_decay_check(0.1, 25, 20, (200, 400))
        assert all(p.gap == 0.0 for p in report.points)

    @pytest.mark.parametrize("Ns", [(), (0,), (200,), (200, 800)])
    def test_no_checked_ratio_does_not_pass(self, Ns):
        report = binomial_decay_check(0.1, 5, 20, Ns)
        assert all(p.ratio is None for p in report.points)
        assert report.reasons

    def test_non_integral_K_rejected(self):
        with pytest.raises(InvalidSyntheticSpecError):
            binomial_decay_check(0.1, 5, 20, (255,))


class TestUniformCollectionConsistency:
    def test_bridges_coincide_on_uniform_collections(self):
        # d documents of R terms, r of them the focal term in each of b_i documents
        for R, r, b_i, d in [(25, 10, 10, 40), (100, 25, 8, 100), (50, 5, 6, 30), (40, 8, 4, 50)]:
            stats = focal_stats(CellStats(n_ij=r, n_i=r * b_i, n_j=R, n=R * d, b_i=b_i, d=d))
            thm1 = tficf(stats) + phi(stats, q_ij(stats))
            cor1 = tfidf(stats) + psi(stats, q_ij(stats))
            assert abs(thm1 - cor1) < 1e-9

    def test_exclusive_collection_zeroes_the_corrections(self):
        stats = focal_stats(CellStats(n_ij=20, n_i=160, n_j=20, n=1000, b_i=8, d=50))
        assert q_ij(stats) == 0.0
        assert phi(stats, q_ij(stats)) == 0.0
        assert psi(stats, q_ij(stats)) == 0.0


class TestSweepRendering:
    def test_text_report_mentions_all_sections(self):
        text = render_sweep_text(
            lemma1_sweep(default_quotient_grid()[:5]),
            cor2_convergence(20, 0.2, (100, 200)),
            binomial_decay_check(0.1, 5, 20, (200, 400)),
        )
        assert "quotient sweep" in text
        assert "convergence" in text
        assert "pmf decay" in text
        assert "3/3 checks passed" in text

    def test_csv_report_parses(self):
        out = render_sweep_csv(
            lemma1_sweep(default_quotient_grid()[:5]),
            cor2_convergence(20, 0.2, (100, 200)),
            binomial_decay_check(0.1, 5, 20, (200, 400)),
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        checks = {row["check"] for row in rows}
        assert checks == {"quotient", "convergence", "decay"}
        assert all(row["ok"] in {"True", "False"} for row in rows)
