"""Ensemble moment formulas against the enumeration oracle and each other."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, comb, factorial, isqrt, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcount.ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble, matrix_probability
from matchcount.errors import CapacityError, DomainError
from matchcount.exact import amm_trial_second_moment, count_all_matchings
from matchcount.moments import (
    bernoulli_mean_matchings,
    bernoulli_second_moment,
    bernoulli_second_moment_closed_form,
    carried_majority_tails,
    carried_moments,
    edge_count_mean_matchings,
    edge_count_second_moment,
    ensemble_moment_oracle,
    majority_tail,
    mean_matchings_bounds,
    meets_power_threshold,
    ratio_scan_columns,
    second_moment_diag_lower_bound,
    to_decimal,
)
from matchcount.streams import RandomStream


def bernoulli_spec(m, n):
    return EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))


def exact_ones_spec(n, m):
    return EnsembleSpec(EnsembleKind.EXACT_ONES, m, n)


def test_to_decimal():
    assert to_decimal(Fraction(1, 2)) == "0.5"
    assert to_decimal(Fraction(1, 3)) == "0.333333333333"
    assert to_decimal(7) == "7"


# The paper's coefficient pairs (a, c) of f(m, l) = a(l) f(m-1, l) + c(l) f(m-1, l-1).
MEAN_A, MEAN_C = (lambda l: Fraction(1)), (lambda l: Fraction(l, 2))
SECOND_A, SECOND_C = (lambda l: Fraction(l + 2, 2)), (lambda l: Fraction(l * l + 3 * l, 4))


def weak_compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total` (stars and bars)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)


def two_term_recurrence_closed_form(m, n, a, c):
    """f(m, n) of the recurrence with coefficients a(l), c(l), summed over
    explicit compositions; exponential, a test-local oracle.

    f(m, n) = sum over k = 0..m of c(n)*...*c(n-k+1) times the sum over
    compositions s_0+...+s_k = m-k of a(n)^s_0 * ... * a(n-k)^s_k.
    """
    total = Fraction(0)
    c_product = Fraction(1)
    for k in range(m + 1):
        if k > 0:
            c_product *= c(n - k + 1)
        a_values = [a(n - t) for t in range(k + 1)]
        inner = Fraction(0)
        for comp in weak_compositions(m - k, k + 1):
            term = Fraction(1)
            for x, s in zip(a_values, comp):
                term *= x**s
            inner += term
        total += c_product * inner
    return total


def recurrence_dp(m, n, a, c):
    """f(m, n) of the two-term recurrence, f(0, l) = 1, by plain Fraction DP."""
    row = {l: Fraction(1) for l in range(n - m, n + 1)}
    for i in range(1, m + 1):
        row = {l: a(l) * row[l] + c(l) * row[l - 1] for l in range(n - m + i, n + 1)}
    return row[n]


# Textbook forms of the integer closed forms: one normalised Fraction per term.
def textbook_mean(m, n):
    return sum(Fraction(comb(m, k) * perm(n, k), 2**k) for k in range(m + 1))


def textbook_diag_bound(n):
    lead = Fraction(factorial(n) ** 2 * factorial(n + 3), 2 ** (2 * n))
    return lead * sum(
        Fraction(2**k * (k + 2) ** k, factorial(k) ** 2 * factorial(k + 3) * factorial(n - k))
        for k in range(n + 1)
    )


def textbook_second_moment_closed_form(m, n):
    """h_d(x_0..x_k) summed afresh for each k, one Fraction per k."""
    total = Fraction(0)
    for k in range(m + 1):
        h = [1] + [0] * (m - k)
        for x in range(n + 2 - k, n + 3):
            for d in range(1, m - k + 1):
                h[d] += x * h[d - 1]
        total += Fraction(perm(n, k) * perm(n + 3, k) * h[m - k], 2 ** (m + k))
    return total


def textbook_edge_count_mean(n, m):
    return sum(
        comb(n, k) ** 2 * factorial(k) * Fraction(comb(n * n - k, m - k), comb(n * n, m))
        for k in range(min(n, m) + 1)
    )


def test_integer_sums_equal_textbook_sums():
    for n in range(61):
        for m in range(n + 1):
            assert bernoulli_mean_matchings(m, n) == textbook_mean(m, n), (m, n)
        assert second_moment_diag_lower_bound(n) == textbook_diag_bound(n), n
    for n in range(31):
        for m in range(n + 1):
            want = textbook_second_moment_closed_form(m, n)
            assert bernoulli_second_moment_closed_form(m, n) == want, (m, n)
    for n in range(7):
        for m in range(n * n + 1):
            assert edge_count_mean_matchings(n, m) == textbook_edge_count_mean(n, m), (n, m)
    assert edge_count_mean_matchings(20, 200) == textbook_edge_count_mean(20, 200)


def test_recurrence_routes_agree():
    """The composition sum gives the production values for the paper's two
    coefficient pairs, and the plain DP's value for random rational ones."""
    for n in range(7):
        for m in range(n + 1):
            assert two_term_recurrence_closed_form(m, n, MEAN_A, MEAN_C) == \
                bernoulli_mean_matchings(m, n)
            assert two_term_recurrence_closed_form(m, n, SECOND_A, SECOND_C) == \
                bernoulli_second_moment(m, n)
    stream = RandomStream(5, 0)
    for _ in range(20):
        a_tab = {l: Fraction(stream.randbelow(9) - 4, 1 + stream.randbelow(5))
                 for l in range(7)}
        c_tab = {l: Fraction(stream.randbelow(9) - 4, 1 + stream.randbelow(5))
                 for l in range(7)}
        for n in range(6):
            for m in range(n + 1):
                assert recurrence_dp(m, n, a_tab.__getitem__, c_tab.__getitem__) == \
                    two_term_recurrence_closed_form(m, n, a_tab.__getitem__, c_tab.__getitem__)


def test_recurrence_domain():
    with pytest.raises(DomainError):
        bernoulli_second_moment(3, 2)
    with pytest.raises(DomainError):
        bernoulli_second_moment(-1, 2)


def test_bernoulli_mean_known_values():
    assert bernoulli_mean_matchings(0, 0) == 1
    assert bernoulli_mean_matchings(1, 1) == Fraction(3, 2)
    assert bernoulli_mean_matchings(2, 2) == Fraction(7, 2)
    assert bernoulli_mean_matchings(4, 4) == Fraction(81, 2)


def test_bernoulli_mean_equals_recurrence():
    for n in range(9):
        for m in range(n + 1):
            assert bernoulli_mean_matchings(m, n) == recurrence_dp(m, n, MEAN_A, MEAN_C)


def test_bernoulli_mean_matches_oracle():
    for n in range(4):
        for m in range(n + 1):
            expected = ensemble_moment_oracle(
                bernoulli_spec(m, n), count_all_matchings
            )
            assert bernoulli_mean_matchings(m, n) == expected


def test_bernoulli_second_moment_known_values():
    assert bernoulli_second_moment(0, 0) == 1
    assert bernoulli_second_moment(1, 1) == Fraction(5, 2)
    assert bernoulli_second_moment(2, 2) == Fraction(61, 4)


def test_bernoulli_second_moment_matches_oracle():
    for n in range(4):
        for m in range(n + 1):
            expected = ensemble_moment_oracle(
                bernoulli_spec(m, n), amm_trial_second_moment
            )
            assert bernoulli_second_moment(m, n) == expected


def test_bernoulli_second_moment_closed_form_agrees():
    for n in range(41):
        for m in range(n + 1):
            assert bernoulli_second_moment(m, n) == \
                bernoulli_second_moment_closed_form(m, n)
    assert bernoulli_second_moment(200, 200) == bernoulli_second_moment_closed_form(200, 200)


def test_mean_bounds_structure():
    b = mean_matchings_bounds(1)
    assert b.kstar == isqrt(5) - 1 == 1
    assert b.peak == 1
    assert b.mean == Fraction(3, 2)
    assert b.peak_le_mean and b.mean_le_upper
    assert not b.mean_le_n_peak  # 3/2 > 1 * 1: the n*peak variant fails at n=1
    for n in range(2, 60):
        b = mean_matchings_bounds(n)
        assert b.kstar == isqrt(2 * n + 3) - 1
        assert b.peak_le_mean and b.mean_le_upper
        assert b.upper == (n + 1) * b.peak


def test_mean_bounds_peak_is_the_max_term():
    """b_kstar really is the largest term of the sum, checked directly."""
    for n in range(0, 40):
        terms = [
            Fraction(2**k, factorial(n - k) * factorial(k) ** 2)
            for k in range(n + 1)
        ]
        bounds = mean_matchings_bounds(n)
        assert max(terms) == terms[bounds.kstar]
        lead = Fraction(factorial(n) ** 2, 2**n)
        assert bounds.mean == lead * sum(terms)
        assert bounds.peak == lead * terms[bounds.kstar]


def test_ensemble_critical_ratio_values():
    def ratio(n):
        return bernoulli_second_moment(n, n) / bernoulli_mean_matchings(n, n) ** 2

    assert ratio(1) == Fraction(5, 2) / Fraction(9, 4) == Fraction(10, 9)
    assert ratio(2) == Fraction(61, 4) / Fraction(49, 4) == Fraction(61, 49)
    for n in range(1, 30):
        assert ratio(n) > 1


def test_diag_lower_bound_below_second_moment():
    assert second_moment_diag_lower_bound(1) == Fraction(5, 2)
    for n in range(40):
        assert second_moment_diag_lower_bound(n) <= bernoulli_second_moment(n, n)


def test_meets_power_threshold_exact():
    # n = 4: threshold is 4^(2/2) = 4, an exact integer comparison
    assert meets_power_threshold(Fraction(4), 4)
    assert not meets_power_threshold(Fraction(4) - Fraction(1, 10**30), 4)
    assert meets_power_threshold(Fraction(9**2), 9)  # 9^(3/2) = 27 <= 81
    assert not meets_power_threshold(Fraction(26), 9)
    assert meets_power_threshold(Fraction(27), 9)
    # n = 2: threshold 2^(sqrt(2)/2) ~ 1.6325, irrational
    assert not meets_power_threshold(Fraction(61, 49), 2)
    assert meets_power_threshold(Fraction(163, 100), 2) is False
    assert meets_power_threshold(Fraction(164, 100), 2) is True
    assert not meets_power_threshold(Fraction(0), 3)
    assert meets_power_threshold(Fraction(1), 1)
    with pytest.raises(DomainError):
        meets_power_threshold(Fraction(1), 0)


def test_meets_power_threshold_near_threshold():
    """2^(sqrt(2)/2) = 1.6325269194...: six decimals are decided quickly, and
    a value 10^-15 away needs integers beyond the cap, so it is refused."""
    assert meets_power_threshold(Fraction("1.632527"), 2) is True
    assert meets_power_threshold(Fraction("1.632526"), 2) is False
    with pytest.raises(CapacityError):
        meets_power_threshold(Fraction("1.632526919438153"), 2)


def test_majority_tail_values():
    assert majority_tail(2, Fraction(1, 50)) == Fraction(5, 16)
    assert majority_tail(1, Fraction(1, 50)) == Fraction(1, 2)
    # direct recomputation for n = 3, eps = 1/50: lower limit ceil(0.52 * 9) = 5
    expected = Fraction(sum(comb(9, i) for i in range(5, 10)), 2**9)
    assert majority_tail(3, Fraction(1, 50)) == expected == Fraction(1, 2)


def test_majority_tail_matches_the_definition():
    """The running binomial equals the sum of C(n^2, i) over the tail."""
    grid = [Fraction(1, 1000), Fraction(1, 200), Fraction(1, 100), Fraction(1, 97),
            Fraction(1, 50)]
    for n in range(1, 41):
        cells = n * n
        for eps in grid:
            lower = ceil((Fraction(1, 2) + eps) * cells)
            tail = sum(comb(cells, i) for i in range(lower, cells + 1))
            assert majority_tail(n, eps) == Fraction(tail, 2**cells), (n, eps)


def test_majority_tail_domain():
    with pytest.raises(DomainError):
        majority_tail(0, Fraction(1, 50))
    with pytest.raises(DomainError):
        majority_tail(2, Fraction(0))
    with pytest.raises(DomainError):
        majority_tail(2, Fraction(1, 49))
    with pytest.raises(DomainError):
        majority_tail(2, Fraction(-1, 100))


def test_majority_tail_never_exceeds_half():
    grid = [Fraction(1, 1000), Fraction(1, 200), Fraction(1, 100), Fraction(1, 50)]
    for n in range(1, 12):
        values = [majority_tail(n, e) for e in grid]
        assert all(v <= Fraction(1, 2) for v in values)
        # nonincreasing in eps
        assert all(x >= y for x, y in zip(values, values[1:]))


@cache
def per_n_row(n, eps):
    """The carried scan's row at n by routes that share no stepping with it:
    the direct mean sum, the second moment's closed form and a fresh first
    row of the tail."""
    second = bernoulli_second_moment_closed_form(n, n)
    return n, bernoulli_mean_matchings(n, n), second, majority_tail(n, eps)


SCAN_EPS = [Fraction(1, 50), Fraction(1, 97), Fraction(1, 1000)]


@pytest.mark.parametrize("eps", SCAN_EPS, ids=str)
def test_carried_rows_equal_the_per_n_functions(eps):
    """Every carried row for n <= 60 equals the per-n routes, in lowest
    terms (Fraction equality compares numerator and denominator)."""
    rows = list(ratio_scan_columns(1, 60, eps))
    assert [row[0] for row in rows] == list(range(1, 61))
    for row in rows:
        assert row == per_n_row(row[0], eps)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 80), st.integers(0, 80), st.sampled_from(SCAN_EPS))
def test_carried_sub_ranges_equal_the_per_n_functions(lo, span, eps):
    """A scan started at any lo carries the same rows as the per-n routes."""
    hi = min(lo + span, 80)
    assert list(ratio_scan_columns(lo, hi, eps)) == [per_n_row(n, eps) for n in range(lo, hi + 1)]


def test_carried_scan_domain():
    """The scan refuses what the per-n functions refuse, and an empty range is empty."""
    with pytest.raises(DomainError):
        list(ratio_scan_columns(0, 3, Fraction(1, 50)))
    with pytest.raises(DomainError):
        list(carried_moments(0, 3))
    with pytest.raises(DomainError):
        list(carried_majority_tails(0, 3, Fraction(1, 50)))
    for eps in (Fraction(0), Fraction(1, 49), Fraction(-1, 100)):
        with pytest.raises(DomainError):
            list(ratio_scan_columns(2, 3, eps))
    assert list(ratio_scan_columns(5, 4, Fraction(1, 50))) == []


def test_edge_count_mean_known_values():
    assert edge_count_mean_matchings(2, 1) == 2
    assert edge_count_mean_matchings(2, 2) == Fraction(10, 3)
    assert edge_count_mean_matchings(2, 4) == 7


def test_edge_count_mean_matches_oracle():
    for n in range(4):
        for m in range(n * n + 1):
            expected = ensemble_moment_oracle(
                exact_ones_spec(n, m), count_all_matchings
            )
            assert edge_count_mean_matchings(n, m) == expected


def test_edge_count_second_moment_known_values():
    assert edge_count_second_moment(1, 1) == 4
    assert edge_count_second_moment(2, 1) == 4
    assert edge_count_second_moment(2, 2) == Fraction(34, 3)
    assert edge_count_second_moment(2, 4) == 49


def _avoiding_matchings(big, fixed, size):
    """Number of size-edge matchings of K_{big,big} that use none of `fixed`
    given disjoint edges: sum over r of (-1)^r C(fixed, r) C(big-r, size-r)^2 (size-r)!."""
    return sum(
        (-1) ** r * comb(fixed, r) * comb(big - r, size - r) ** 2 * factorial(size - r)
        for r in range(min(fixed, size) + 1)
    )


def per_pair_second_moment(n, m):
    """The pair sum term by term: M1 with k edges, M2 sharing j of them and
    adding s avoiding edges, their union of k+s cells present."""
    total = 0
    for k in range(min(n, m) + 1):
        first = comb(n, k) ** 2 * factorial(k)
        for j in range(k + 1):
            shared = first * comb(k, j)
            for s in range(min(n - j, m - k) + 1):
                total += (
                    shared
                    * _avoiding_matchings(n - j, k - j, s)
                    * comb(n * n - k - s, m - k - s)
                )
    return Fraction(total, comb(n * n, m))


def test_avoiding_matchings_brute_force():
    """s-edge matchings of K_{N,N} that avoid the fixed edges (i, i), i < K."""
    from itertools import permutations

    for big in range(5):
        for fixed in range(big + 1):
            for size in range(big + 1):
                count = sum(
                    1
                    for rows in combinations(range(big), size)
                    for cols in permutations(range(big), size)
                    if all(not (r == c < fixed) for r, c in zip(rows, cols))
                )
                assert _avoiding_matchings(big, fixed, size) == count


def test_edge_count_second_moment_matches_per_pair_sum():
    """The grouped sum equals the term-by-term pair sum exactly."""
    for n in range(9):
        for m in range(n * n + 1):
            assert edge_count_second_moment(n, m) == per_pair_second_moment(n, m), (n, m)
    for n, m in ((20, 200), (40, 800)):
        assert edge_count_second_moment(n, m) == per_pair_second_moment(n, m), (n, m)


def test_edge_count_second_moment_pinned_beyond_the_oracle():
    """Values of the earlier six-deep pair decomposition, past the oracle's n <= 3."""
    assert edge_count_second_moment(5, 12) == Fraction(1038405943, 52003)
    assert edge_count_second_moment(6, 18) == Fraction(3995705846, 6293)
    assert edge_count_second_moment(7, 30) == Fraction(404294190089749639, 3102647284)


def test_edge_count_second_moment_matches_oracle():
    for n in range(4):
        for m in range(n * n + 1):
            expected = ensemble_moment_oracle(
                exact_ones_spec(n, m), lambda a: count_all_matchings(a) ** 2
            )
            assert edge_count_second_moment(n, m) == expected


def test_edge_count_moment_consistency():
    """Second moment at least the squared mean; saturated board is deterministic."""
    for n in range(1, 4):
        for m in range(n * n + 1):
            mean = edge_count_mean_matchings(n, m)
            m2 = edge_count_second_moment(n, m)
            assert m2 >= mean**2
        full = n * n
        assert edge_count_second_moment(n, full) == \
            edge_count_mean_matchings(n, full) ** 2


def test_edge_count_domain():
    with pytest.raises(DomainError):
        edge_count_mean_matchings(2, 5)
    with pytest.raises(DomainError):
        edge_count_mean_matchings(-1, 0)
    with pytest.raises(DomainError):
        edge_count_mean_matchings(2, -1)
    with pytest.raises(DomainError):
        edge_count_second_moment(2, -1)


def test_oracle_handles_biased_bernoulli():
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2, Fraction(1, 3))
    value = ensemble_moment_oracle(spec, count_all_matchings)
    # hand sum: E[count] = 1 + E[#singles] + E[#pairs]
    #   4 cells each present w.p. 1/3; 2 disjoint pairs each w.p. 1/9
    assert value == 1 + 4 * Fraction(1, 3) + 2 * Fraction(1, 9)


def test_oracle_averages_several_statistics_in_one_enumeration():
    """One statistic gives the probability-weighted sum as one Fraction; several
    give a tuple, in the order given, equal to one call per statistic."""

    def square(a):
        return count_all_matchings(a) ** 2

    for spec in (
        EnsembleSpec(EnsembleKind.BERNOULLI, 2, 3, Fraction(1, 3)),
        EnsembleSpec(EnsembleKind.EXACT_ONES, 4, 3),
    ):
        support = enumerate_ensemble(spec)
        weighted = sum(
            (matrix_probability(spec, a) * count_all_matchings(a) for a in support), Fraction(0)
        )
        mean = ensemble_moment_oracle(spec, count_all_matchings)
        assert type(mean) is Fraction and mean == weighted
        statistics = square, count_all_matchings, amm_trial_second_moment
        assert ensemble_moment_oracle(spec, *statistics) == (
            ensemble_moment_oracle(spec, square),
            mean,
            ensemble_moment_oracle(spec, amm_trial_second_moment),
        )
    assert mean == edge_count_mean_matchings(3, 4)


def test_closed_form_and_diag_bound_domains():
    with pytest.raises(DomainError):
        bernoulli_second_moment_closed_form(3, 2)
    with pytest.raises(DomainError):
        second_moment_diag_lower_bound(-1)
