"""Log-space combinatorics and distribution kernels.

All probability math here stays in natural-log space end to end; a
probability is represented by its log (a float <= 0, with -inf standing for
probability zero). Tail values far below double-precision underflow (around
exp(-745)) are therefore exact to float precision, which the extreme
upper-tail weights in this package require.

Everything is a pure function. The hypergeometric tail has one algorithm, the
pmf at one point times a ratio series (R's pdhyper; Wu 1993, ACM TOMS), whose
work is bounded by the terms above 2**-60 of the sum, not by the support.
The tail's pmf anchor is ln C(K, x) + ln C(N - K, s - x) - ln C(N, s). Over a
batch of tails from one collection, ln C(N, s) repeats per document and
ln C(K, x) per term, so `log_hypergeom_tail` takes an optional memo dict,
(a, b) -> ln C(a, b), for those two; `log_binom_pmf` takes the same memo for
the binomial mass's ln C(s, k), which repeats per (n_j, n_ij). The caller
keeps it for one batch (the column walk of one `weigh_matrix` or
`rank_matrix` call) and drops it after.
A value is a pure function of its key, so no result depends on the memo.
Error budget, checked in the tests against exact big-integer sums over
populations up to 10**7 with n_j <= 300: -ln P(X >= k) within 1e-11
absolute, and the quotient q within 1e-11 relative.
"""

from __future__ import annotations

from math import exp, inf, lgamma, log, log1p, pi
from typing import NamedTuple

from .errors import InvalidChooseError, InvalidProbabilityError

NEG_INFINITY = -inf

# A tail sum stops at the first term below this fraction of the running sum.
_TAIL_EPS = 2.0**-60
_HALF_LN_2PI = 0.5 * log(2 * pi)


class HypergeomParams(NamedTuple):
    """Arguments of the hypergeometric distribution.

    k: observed successes, K: population successes, s: sample size,
    N: population size.
    """

    k: int
    K: int
    s: int
    N: int


def _validate_population(params: HypergeomParams) -> None:
    k, K, s, N = params
    if N < 0 or not 0 <= K <= N or not 0 <= s <= N:
        raise ValueError(f"invalid hypergeometric population: {params}")
    if k < 0:
        raise ValueError(f"negative success count: {params}")


def log_factorial(x: int) -> float:
    """ln(x!) for x >= 0, accurate to at least 12 significant digits."""
    if x < 0:
        raise ValueError(f"factorial undefined for {x}")
    return lgamma(x + 1.0)


def _stirling_error(n: int) -> float:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)**n) for n >= 1 (Loader 2000)."""
    if n <= 15:
        return log_factorial(n) - (n + 0.5) * log(n) + n - _HALF_LN_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


COUNT_LIMIT = 10**154
"""The bound on a collection's total n below which no weight leaves the float range.

Every count of such a collection is below 10**154 and so converts to float,
and every product of two counts is below 10**308, under the largest double
(about 1.797 * 10**308), so it converts too: `_stirling_error`'s n * n and
the ratio terms of the tail series. The one product of counts formed in
floats is log_choose's 2 pi b (a - b), and b (a - b) peaks at b = a / 2, so
it is at most (pi / 2) a**2 < 1.58 * 10**308 and stays finite. So no weight
of a collection with n < COUNT_LIMIT raises OverflowError, and the CLI
rejects a collection with n >= COUNT_LIMIT before it evaluates any cell."""


def log_choose(a: int, b: int) -> float:
    """ln C(a, b) for 0 <= b <= a; exactly symmetric in b <-> a - b.

    Stirling's formula plus its error terms: unlike a difference of three
    log-factorials near a ln a, no large terms cancel. Arguments past the
    float range raise OverflowError.
    """
    if b < 0 or b > a:
        raise InvalidChooseError(f"C({a}, {b}) is undefined")
    b = min(b, a - b)
    if b == 0:
        return 0.0
    rest = a - b
    spread = 2 * pi * b * rest  # a float product overflows to inf without raising
    if spread == inf:
        raise OverflowError(f"ln C({a}, {b}) is past the float range")
    stirling = b * log(a / b) + rest * log1p(b / rest) - 0.5 * log(spread / a)
    return stirling + _stirling_error(a) - _stirling_error(b) - _stirling_error(rest)


def _support(K: int, s: int, N: int) -> tuple[int, int]:
    return max(0, s - (N - K)), min(K, s)


def _log_pmf(x: int, K: int, s: int, N: int, memo: dict[tuple[int, int], float]) -> float:
    """ln P(X = x) for x in the support of an already validated population,
    with ln C(K, x) and ln C(N, s) read from memo (or computed into it)."""
    per_term = memo.get((K, x))
    if per_term is None:
        per_term = memo[K, x] = log_choose(K, x)
    per_doc = memo.get((N, s))
    if per_doc is None:
        per_doc = memo[N, s] = log_choose(N, s)
    return per_term + log_choose(N - K, s - x) - per_doc


def log_hypergeom_pmf(params: HypergeomParams) -> float:
    """ln P(X = k) for X hypergeometric(K, s, N); -inf outside the support."""
    _validate_population(params)
    k, K, s, N = params
    lo, hi = _support(K, s, N)
    if k < lo or k > hi:
        return NEG_INFINITY
    return _log_pmf(k, K, s, N, {})


def log_binom_pmf(k: int, s: int, p: float, memo: dict[tuple[int, int], float] | None = None) -> float:
    """ln P(X = k) for X binomial(s, p).

    p in {0, 1} degenerates to a point mass at 0 or s; k outside [0, s]
    has probability zero. memo, if given, is a (a, b) -> ln C(a, b) memo as
    log_hypergeom_tail takes, and holds ln C(s, k); the value is the same
    either way.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"probability {p} outside [0, 1]")
    if s < 0:
        raise ValueError(f"negative sample size {s}")
    if k < 0 or k > s:
        return NEG_INFINITY
    if p == 0.0:
        return 0.0 if k == 0 else NEG_INFINITY
    if p == 1.0:
        return 0.0 if k == s else NEG_INFINITY
    if memo is None:
        memo = {}
    log_c = memo.get((s, k))
    if log_c is None:
        log_c = memo[s, k] = log_choose(s, k)
    return log_c + k * log(p) + (s - k) * log1p(-p)


def _falling_series(k: int, K: int, s: int, N: int) -> float:
    """The sum of pmf(t) / pmf(k) over t >= k, for k past the mode, where the
    pmf falls from k upward.

    Each term is the last times the ratio (K-t)(s-t) / ((t+1)(N-K-s+t+1)). The
    sum stops at the first term below _TAIL_EPS of the running sum.
    """
    rest = N - K - s
    total = term = 1.0
    for t in range(k, min(K, s)):
        term *= (K - t) * (s - t) / ((t + 1) * (rest + t + 1))
        total += term
        if term < total * _TAIL_EPS:
            break
    return total


def log_hypergeom_tail(
    params: HypergeomParams, memo: dict[tuple[int, int], float] | None = None
) -> tuple[float, float]:
    """(ln P(X >= k), ln P(X >= k - 1)) for X hypergeometric(K, s, N).

    Both come from one log-pmf anchor. Each is exactly 0.0 when its bound is
    at or below the lower support edge (the tail is the whole distribution)
    and -inf when it is past the upper edge (empty tail); neither is above 0.
    Past the mode the anchor is pmf(k), and P(X >= k - 1) adds pmf(k - 1), one
    ratio step back. At or below the mode the anchor is pmf(k - 1), summed as
    the tail of the mirrored draw s - X ~ hypergeometric(N - K, s, N):
    P(X >= k) = 1 - P(X <= k - 1) and P(X >= k - 1) = 1 - P(X <= k - 2), both
    through log1p. At k = hi + 1 the anchor is pmf(hi), the second value.

    memo, if given, maps (a, b) to ln C(a, b) and holds the anchor's two
    terms that repeat over a batch, ln C(K, .) and ln C(N, s); without it a
    fresh one is used, and the values are the same either way.
    """
    _validate_population(params)
    if memo is None:
        memo = {}
    k, K, s, N = params
    lo, hi = _support(K, s, N)
    if k <= lo:
        return 0.0, 0.0
    if k > hi + 1:
        return NEG_INFINITY, NEG_INFINITY
    if k > hi:
        tail, before = NEG_INFINITY, _log_pmf(hi, K, s, N, memo)
    elif k > (K + 1) * (s + 1) // (N + 2):
        anchor = _log_pmf(k, K, s, N, memo)
        total = _falling_series(k, K, s, N)
        back = k * (N - K - s + k) / ((K - k + 1) * (s - k + 1))  # pmf(k - 1) / pmf(k)
        tail, before = anchor + log(total), anchor + log(total + back)
    else:
        anchor = _log_pmf(k - 1, K, s, N, memo)  # the mirrored draw's pmf at s - k + 1
        total = _falling_series(s - k + 1, N - K, s, N)
        tail, before = log1p(-exp(anchor + log(total))), log1p(-exp(anchor) * (total - 1.0))
    return tail, 0.0 if k - 1 == lo else min(before, 0.0)
