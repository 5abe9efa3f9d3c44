"""Tests for the log-space combinatorics and distribution kernels."""

import itertools
import time
from fractions import Fraction
from math import comb, exp, inf, isclose, lgamma, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_refs import chvatal_log_bound, log_sum_exp, neg_log_tail, pmf_fraction, tail_fraction
from termfisher.corpus import CellStats
from termfisher.errors import InvalidChooseError, InvalidProbabilityError
from termfisher.numerics import (
    COUNT_LIMIT,
    NEG_INFINITY,
    HypergeomParams,
    log_binom_pmf,
    log_choose,
    log_factorial,
    log_hypergeom_pmf,
    log_hypergeom_tail,
)


class TestLogFactorial:
    def test_zero_and_one(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_five_matches_direct_product(self):
        product = 1 * 2 * 3 * 4 * 5
        assert isclose(log_factorial(5), log(product), rel_tol=1e-12)

    def test_1000_matches_explicit_summation(self):
        total = sum(log(k) for k in range(1, 1001))
        assert isclose(log_factorial(1000), total, rel_tol=1e-10)

    def test_table_and_lgamma_agree_at_seam(self):
        # around 10,000, where an earlier log-factorial table handed over to lgamma
        for x in range(9_997, 10_004):
            assert isclose(log_factorial(x), lgamma(x + 1), rel_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)

    @given(st.integers(min_value=1, max_value=50_000))
    def test_recurrence(self, x):
        assert isclose(log_factorial(x), log_factorial(x - 1) + log(x), rel_tol=1e-12)


class TestLogChoose:
    def test_enumeration_oracle(self):
        subsets = list(itertools.combinations(range(4), 2))
        assert isclose(log_choose(4, 2), log(len(subsets)), rel_tol=1e-12)

    def test_choose_zero_is_exactly_zero(self):
        for a in (0, 1, 7, 1000):
            assert log_choose(a, 0) == 0.0

    def test_symmetry_is_exact(self):
        assert log_choose(1000, 200) == log_choose(1000, 800)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidChooseError):
            log_choose(3, 4)
        with pytest.raises(InvalidChooseError):
            log_choose(3, -1)

    def test_past_the_float_range_raises(self):
        # 2 pi b (a - b) overflows to inf below 2**512, where _stirling_error starts raising
        assert log_choose(10**150, 5 * 10**149) > 0.0
        with pytest.raises(OverflowError):
            log_choose(13 * 10**153, 65 * 10**152)

    def test_every_argument_below_the_count_limit_is_in_float_range(self):
        # the largest spread: a just below the bound, b at a / 2
        a = COUNT_LIMIT - 1
        for b in (1, a // 2, a - 1):
            assert 0.0 < log_choose(a, b) < inf

    @given(st.integers(min_value=0, max_value=2000), st.data())
    def test_matches_integer_binomial(self, a, data):
        b = data.draw(st.integers(min_value=0, max_value=a))
        assert isclose(log_choose(a, b), log(comb(a, b)), rel_tol=1e-12, abs_tol=1e-12)


class TestHypergeomPmf:
    def test_exact_small_case(self):
        # C(2,1) * C(2,1) / C(4,2) = 2/3
        value = log_hypergeom_pmf(HypergeomParams(k=1, K=2, s=2, N=4))
        assert isclose(value, log(2 / 3), rel_tol=1e-12)

    def test_degenerate_population_is_certain(self):
        assert log_hypergeom_pmf(HypergeomParams(k=3, K=10, s=3, N=10)) == 0.0
        assert log_hypergeom_pmf(HypergeomParams(k=7, K=7, s=7, N=7)) == 0.0

    def test_outside_support_is_zero_probability(self):
        # sample of 3 from 5 with only 1 failure available: k = 1 impossible
        assert log_hypergeom_pmf(HypergeomParams(k=1, K=4, s=3, N=5)) == NEG_INFINITY
        assert log_hypergeom_pmf(HypergeomParams(k=5, K=4, s=6, N=10)) == NEG_INFINITY

    def test_invalid_population_rejected(self):
        with pytest.raises(ValueError):
            log_hypergeom_pmf(HypergeomParams(k=1, K=11, s=2, N=10))
        with pytest.raises(ValueError):
            log_hypergeom_pmf(HypergeomParams(k=-1, K=2, s=2, N=10))

    def test_symmetry_in_K_and_s_exhaustive(self):
        for N in range(1, 31):
            for K in range(N + 1):
                for s in range(N + 1):
                    for k in range(min(K, s) + 1):
                        a = log_hypergeom_pmf(HypergeomParams(k, K, s, N))
                        b = log_hypergeom_pmf(HypergeomParams(k, s, K, N))
                        if a == NEG_INFINITY:
                            assert b == NEG_INFINITY
                        else:
                            assert isclose(a, b, rel_tol=1e-11, abs_tol=1e-11)

    def test_matches_exact_rational_sampled(self):
        for N in (12, 37, 60):
            for K in range(0, N + 1, 3):
                for s in range(0, N + 1, 5):
                    for k in range(max(0, s - (N - K)), min(K, s) + 1):
                        exact = pmf_fraction(k, K, s, N)
                        value = exp(log_hypergeom_pmf(HypergeomParams(k, K, s, N)))
                        assert isclose(value, float(exact), rel_tol=1e-12)


class TestBinomPmf:
    def test_fair_coin(self):
        assert isclose(log_binom_pmf(1, 2, 0.5), log(0.5), rel_tol=1e-12)

    def test_all_failures_uses_log1p_path(self):
        from math import log1p

        for s, p in ((10, 0.3), (100, 0.15), (7, 0.9)):
            assert log_binom_pmf(0, s, p) == s * log1p(-p)

    def test_exact_rational_oracle(self):
        # p taken as the exact binary value of the float 0.15
        p = Fraction(0.15)
        exact = comb(100, 25) * p**25 * (1 - p) ** 75
        value = log_binom_pmf(25, 100, 0.15)
        assert isclose(exp(value), float(exact), rel_tol=1e-12)

    def test_degenerate_probabilities(self):
        assert log_binom_pmf(0, 5, 0.0) == 0.0
        assert log_binom_pmf(3, 5, 0.0) == NEG_INFINITY
        assert log_binom_pmf(5, 5, 1.0) == 0.0
        assert log_binom_pmf(4, 5, 1.0) == NEG_INFINITY

    def test_outside_range_is_zero_probability(self):
        assert log_binom_pmf(6, 5, 0.4) == NEG_INFINITY
        assert log_binom_pmf(-1, 5, 0.4) == NEG_INFINITY

    def test_negative_sample_size(self):
        with pytest.raises(ValueError, match="negative sample size -1"):
            log_binom_pmf(0, -1, 0.5)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbabilityError):
            log_binom_pmf(1, 2, 1.5)
        with pytest.raises(InvalidProbabilityError):
            log_binom_pmf(1, 2, -0.1)


def assert_pair_matches_oracle(k, K, s, N, rel_tol=1e-10):
    """Both elements of the kernel's pair against exact P(X >= k), P(X >= k - 1)."""
    pair = log_hypergeom_tail(HypergeomParams(k, K, s, N))
    for value, bound in zip(pair, (k, k - 1)):
        exact = tail_fraction(max(bound, 0), K, s, N)
        if exact == 0:
            assert value == NEG_INFINITY
        elif exact == 1:
            assert value == 0.0
        else:
            assert isclose(exp(value), float(exact), rel_tol=rel_tol)
        assert value <= 0.0


class TestHypergeomTail:
    def test_k_zero_is_exactly_log_one(self):
        assert log_hypergeom_tail(HypergeomParams(0, 5, 3, 12)) == (0.0, 0.0)

    def test_full_support_is_exactly_log_one(self):
        # k at or below the lower support edge covers everything
        assert log_hypergeom_tail(HypergeomParams(2, 9, 3, 10)) == (0.0, 0.0)

    def test_exact_small_case(self):
        # 1 - C(2,0)C(2,2)/C(4,2) = 5/6
        value = log_hypergeom_tail(HypergeomParams(1, 2, 2, 4))[0]
        assert isclose(value, log(5 / 6), rel_tol=1e-12)

    def test_reference_cell(self):
        value = log_hypergeom_tail(HypergeomParams(25, 150, 100, 1000))[0]
        assert abs(-value - 5.5429) < 5e-5

    def test_empty_tail_is_zero_probability(self):
        assert log_hypergeom_tail(HypergeomParams(21, 160, 20, 1000))[0] == NEG_INFINITY
        assert log_hypergeom_tail(HypergeomParams(99, 5, 8, 40)) == (NEG_INFINITY, NEG_INFINITY)

    def test_previous_bound_at_the_lower_support_edge_is_log_one(self):
        # lo = 2 and k - 1 = lo, on the mirrored path (mode 3)
        assert_pair_matches_oracle(3, 9, 3, 10)
        assert log_hypergeom_tail(HypergeomParams(3, 9, 3, 10))[1] == 0.0
        # lo = 0 and k - 1 = lo, past the mode (mode 0)
        assert_pair_matches_oracle(1, 2, 2, 40)
        assert log_hypergeom_tail(HypergeomParams(1, 2, 2, 40))[1] == 0.0

    def test_just_past_the_upper_edge_is_the_last_pmf(self):
        first, second = log_hypergeom_tail(HypergeomParams(21, 160, 20, 1000))
        assert first == NEG_INFINITY
        assert isclose(second, log_hypergeom_pmf(HypergeomParams(20, 160, 20, 1000)), rel_tol=1e-15)
        assert_pair_matches_oracle(21, 160, 20, 1000)
        # a one-point support: the tail before hi + 1 is the whole distribution
        assert log_hypergeom_tail(HypergeomParams(5, 10, 4, 10)) == (NEG_INFINITY, 0.0)

    def test_pair_across_the_mode_seam(self):
        for K, s, N in ((150, 100, 1000), (7, 30, 60), (500, 500, 1000), (3, 50, 51)):
            mode = (K + 1) * (s + 1) // (N + 2)
            for k in range(max(mode - 2, 0), min(mode + 3, min(K, s) + 2)):
                assert_pair_matches_oracle(k, K, s, N, rel_tol=1e-12)

    def test_monotone_nonincreasing_in_k(self):
        for N in (17, 40):
            for K in range(N + 1):
                for s in range(N + 1):
                    pairs = [
                        log_hypergeom_tail(HypergeomParams(k, K, s, N))
                        for k in range(min(K, s) + 2)
                    ]
                    values = [first for first, _ in pairs]
                    assert all(a >= b for a, b in zip(values, values[1:]))
                    assert all(second >= first for first, second in pairs)

    def test_recurrence_against_pairwise_logsumexp(self):
        for N in (30, 55):
            for K in range(1, N, 4):
                for s in range(1, N, 5):
                    hi = min(K, s)
                    for k in range(max(0, s - (N - K)) + 1, hi + 1):
                        whole = log_hypergeom_tail(HypergeomParams(k, K, s, N))[0]
                        past = log_hypergeom_tail(HypergeomParams(k + 1, K, s, N))
                        split = log_sum_exp(
                            log_hypergeom_pmf(HypergeomParams(k, K, s, N)), past[0]
                        )
                        assert abs(whole - split) < 1e-12
                        assert abs(past[1] - whole) < 1e-12

    def test_normalization_sampled(self):
        for N in (10, 25):
            for K in range(N + 1):
                for s in range(N + 1):
                    total = sum(
                        exp(log_hypergeom_pmf(HypergeomParams(k, K, s, N)))
                        for k in range(min(K, s) + 1)
                    )
                    assert abs(total - 1.0) < 1e-12

    def test_matches_exact_oracle_sampled(self):
        for N in (20, 45, 60):
            for K in range(0, N + 1, 4):
                for s in range(0, N + 1, 3):
                    for k in range(0, min(K, s) + 3):
                        assert_pair_matches_oracle(k, K, s, N)

    def test_deep_tail_far_below_underflow(self):
        # probability around exp(-172): representable only in log space
        first, second = log_hypergeom_tail(HypergeomParams(80, 1200, 80, 10000))
        assert isclose(first, -neg_log_tail(80, 1200, 80, 10000), rel_tol=1e-11)
        assert isclose(second, -neg_log_tail(79, 1200, 80, 10000), rel_tol=1e-11)

    def test_tail_near_one_is_at_most_log_one(self):
        # summing the whole distribution once gave +4.1e-9 here
        assert max(log_hypergeom_tail(HypergeomParams(1, 10**6, 10**6, 4 * 10**6))) <= 0.0
        assert max(log_hypergeom_tail(HypergeomParams(2, 10**6, 10**6, 4 * 10**6))) <= 0.0

    @pytest.mark.parametrize(
        "params",
        [
            HypergeomParams(1, 10**6, 10**6, 4 * 10**6),  # support 10**6 wide
            HypergeomParams(2_500_100, 10**7, 25 * 10**6, 10**8),  # just past the mode
            HypergeomParams(2_499_900, 10**7, 25 * 10**6, 10**8),  # just below it
        ],
    )
    def test_work_is_bounded_on_wide_supports(self, params):
        start = time.perf_counter()
        value = log_hypergeom_tail(params)
        assert time.perf_counter() - start < 0.25
        assert max(value) <= 0.0

    @given(
        st.integers(min_value=1, max_value=60),
        st.data(),
    )
    @settings(max_examples=200)
    def test_tail_matches_oracle_property(self, N, data):
        K = data.draw(st.integers(min_value=0, max_value=N))
        s = data.draw(st.integers(min_value=0, max_value=N))
        k = data.draw(st.integers(min_value=0, max_value=min(K, s) + 2))
        assert_pair_matches_oracle(k, K, s, N)

    @given(st.data())
    @settings(max_examples=200)
    def test_a_shared_memo_changes_no_bit(self, data):
        # one memo across populations, which often share N, and each k twice,
        # so that later calls read terms that earlier ones stored
        Ns = data.draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=3))
        memo = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            N = data.draw(st.sampled_from(Ns))
            K = data.draw(st.integers(min_value=0, max_value=N))
            s = data.draw(st.integers(min_value=0, max_value=N))
            lo, hi = max(0, s - (N - K)), min(K, s)
            mode = (K + 1) * (s + 1) // (N + 2)
            # at or below lo: whole; lo + 1: lower edge; mode: mirrored;
            # mode + 1: falling; hi + 1: upper edge anchor; hi + 2: empty
            for k in sorted({lo, lo + 1, mode, mode + 1, hi, hi + 1, hi + 2}) * 2:
                params = HypergeomParams(k, K, s, N)
                shared = log_hypergeom_tail(params, memo)
                fresh = log_hypergeom_tail(params)
                assert [v.hex() for v in shared] == [v.hex() for v in fresh]


class TestTailOracle:
    def test_exact_small_case(self):
        assert tail_fraction(1, 2, 2, 4) == Fraction(5, 6)

    def test_k_zero_is_one(self):
        assert tail_fraction(0, 7, 4, 30) == Fraction(1)

    def test_empty_sum_is_zero(self):
        assert tail_fraction(5, 4, 6, 10) == Fraction(0)


def _grid_stats(n_ij, n_i, n_j, n):
    return CellStats(n_ij=n_ij, n_i=n_i, n_j=n_j, n=n, b_i=1, d=1)


class TestChvatalBound:
    def test_zero_when_p_check_equals_p_i(self):
        stats = _grid_stats(0, 1, 10, 10)  # p_i = 0.1 == p_check
        assert chvatal_log_bound(stats) == 0.0

    def test_dominates_engine_tail_on_reference_cell(self):
        stats = CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        bound = chvatal_log_bound(stats)
        tail = log_hypergeom_tail(HypergeomParams(26, 150, 100, 1000))[0]
        assert bound < 0.0
        assert bound >= tail

    def test_dominates_exact_tail_on_grid(self):
        for N in (20, 60, 120, 200):
            for K in range(1, N, max(1, N // 8)):
                for s in range(2, N, max(1, N // 8)):
                    for n_ij in range(0, min(K, s), max(1, s // 5)):
                        if K * s > (n_ij + 1) * N or n_ij + 1 >= s:
                            continue
                        bound = chvatal_log_bound(_grid_stats(n_ij, K, s, N))
                        exact = tail_fraction(n_ij + 1, K, s, N)
                        if exact == 0:
                            continue
                        assert bound >= -neg_log_tail(n_ij + 1, K, s, N)

    def test_inapplicable_cases_raise(self):
        with pytest.raises(ValueError, match="requires p_i <= p_check"):
            chvatal_log_bound(_grid_stats(0, 90, 10, 100))  # p_i > p_check
        with pytest.raises(ValueError, match="requires p_check < 1"):
            chvatal_log_bound(_grid_stats(9, 9, 10, 100))  # p_check = 1


class TestLogSumExp:
    def test_basic(self):
        assert isclose(log_sum_exp(log(0.25), log(0.5)), log(0.75), rel_tol=1e-12)

    def test_identity_with_zero_probability(self):
        assert log_sum_exp(NEG_INFINITY, -1.5) == -1.5
        assert log_sum_exp(-1.5, NEG_INFINITY) == -1.5
        assert log_sum_exp(NEG_INFINITY, NEG_INFINITY) == NEG_INFINITY

    def test_extreme_magnitudes(self):
        assert log_sum_exp(0.0, -800.0) == 0.0  # addend below resolution
        assert isclose(log_sum_exp(-1000.0, -1000.0), -1000.0 + log(2), rel_tol=1e-12)
