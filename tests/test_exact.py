"""Exact counting: row sweep, brute-force agreement, permanent routes."""

import math
from fractions import Fraction

import pytest

from matchcount.ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble
from matchcount.errors import CapacityError, UndefinedRatioError
from matchcount.estimators import Method
from matchcount.exact import (
    amm_trial_second_moment,
    count_all_matchings,
    count_matchings_via_permanent,
    critical_ratio,
    matching_profile,
    permanent_ryser,
    rm_trial_second_moment,
)
from matchcount.matrix import ZeroOneMatrix, build_transformed
from matchcount.oracles import (
    brute_force_matching_count,
    brute_force_matching_profile,
    permanent_naive,
)


def all_matrices(m, n):
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))
    return enumerate_ensemble(spec)


def test_count_known_values():
    assert count_all_matchings(ZeroOneMatrix.zeros(0, 0)) == 1
    assert count_all_matchings(ZeroOneMatrix.zeros(3, 4)) == 1
    assert count_all_matchings(ZeroOneMatrix.ones(1, 1)) == 2
    assert count_all_matchings(ZeroOneMatrix.ones(2, 2)) == 7
    assert count_all_matchings(ZeroOneMatrix.identity(3)) == 8
    # 3x3 all-ones: 1 empty + 9 singles + 18 pairs + 6 triples
    assert count_all_matchings(ZeroOneMatrix.ones(3, 3)) == 34


def test_count_matches_brute_force_exhaustive():
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                assert count_all_matchings(a) == brute_force_matching_count(a)


def test_count_transpose_invariant():
    """Wide inputs are swept transposed; both orientations must agree."""
    for m, n in ((3, 2), (2, 5), (5, 2)):
        for a in all_matrices(m, n):
            at = ZeroOneMatrix.from_rows(
                [[a.entry(i, j) for i in range(a.rows)] for j in range(a.cols)]
            )
            assert count_all_matchings(a) == count_all_matchings(at)
            profile, profile_t = matching_profile(a), matching_profile(at)
            assert len(profile) == a.cols + 1
            assert len(profile_t) == at.cols + 1
            k = min(m, n) + 1
            assert profile[:k] == profile_t[:k]
            assert not any(profile[k:]) and not any(profile_t[k:])


def test_matching_profile():
    assert matching_profile(ZeroOneMatrix.ones(2, 2)) == [1, 4, 2]
    assert matching_profile(ZeroOneMatrix.zeros(2, 2)) == [1, 0, 0]
    assert matching_profile(ZeroOneMatrix.identity(3)) == [1, 3, 3, 1]
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                profile = matching_profile(a)
                assert profile == brute_force_matching_profile(a)
                assert sum(profile) == count_all_matchings(a)
                assert len(profile) == n + 1
                # no matching can use more rows than exist
                assert all(c == 0 for c in profile[m + 1:])


def test_permanent_known_values():
    assert permanent_ryser(ZeroOneMatrix.zeros(0, 0)) == 1
    assert permanent_ryser(ZeroOneMatrix.identity(4)) == 1
    assert permanent_ryser(ZeroOneMatrix.ones(4, 4)) == math.factorial(4)
    assert permanent_ryser(ZeroOneMatrix.ones(2, 2)) == 2


def test_permanent_matches_naive_exhaustive():
    for n in range(4):
        for a in all_matrices(n, n):
            assert permanent_ryser(a) == permanent_naive(a)


def test_count_via_permanent_route():
    for n in range(4):
        for a in all_matrices(n, n):
            assert count_matchings_via_permanent(a) == count_all_matchings(a)


def test_transformed_permanent_identity():
    """per of the doubled block matrix equals n! times the matching count."""
    for n in range(1, 4):
        for a in all_matrices(n, n):
            b = build_transformed(a)
            assert permanent_ryser(b) == math.factorial(n) * count_all_matchings(a)


def test_trial_second_moments_small():
    assert amm_trial_second_moment(ZeroOneMatrix.ones(2, 2)) == 51
    assert rm_trial_second_moment(ZeroOneMatrix.identity(2)) == 1
    assert amm_trial_second_moment(ZeroOneMatrix.zeros(2, 2)) == 1
    assert rm_trial_second_moment(ZeroOneMatrix.zeros(2, 2)) == 0


def test_critical_ratio_values():
    assert critical_ratio(ZeroOneMatrix.ones(2, 2), Method.AMM) == Fraction(51, 49)
    assert critical_ratio(ZeroOneMatrix.identity(2), Method.RM) == Fraction(1)
    with pytest.raises(UndefinedRatioError):
        critical_ratio(ZeroOneMatrix.zeros(2, 2), Method.RM)
    # AMM output is always >= 1, so its ratio is always defined
    assert critical_ratio(ZeroOneMatrix.zeros(2, 2), Method.AMM) == Fraction(1)


def test_critical_ratio_at_least_one():
    """Second moment >= square of mean, always."""
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                assert critical_ratio(a, Method.AMM) >= 1
                if m == n and permanent_ryser(a) > 0:
                    assert critical_ratio(a, Method.RM) >= 1


def test_capacity_limits():
    with pytest.raises(CapacityError):
        count_all_matchings(ZeroOneMatrix.zeros(1, 25))
    with pytest.raises(CapacityError):
        permanent_ryser(ZeroOneMatrix.zeros(21, 21))
    with pytest.raises(CapacityError):
        count_matchings_via_permanent(ZeroOneMatrix.zeros(11, 11))
    # right at the cap is fine
    assert count_all_matchings(ZeroOneMatrix.zeros(1, 24)) == 1


def test_tall_matrix_has_no_recursion_limit():
    """Row count costs time only: 3000 rows are swept without recursion."""
    a = ZeroOneMatrix.ones(3000, 3)
    assert count_all_matchings(a) == sum(
        math.comb(3000, k) * math.comb(3, k) * math.factorial(k) for k in range(4)
    ) == 27000006001
    assert matching_profile(a) == [
        1, 9000, 3 * 2 * math.comb(3000, 2), 6 * math.comb(3000, 3)
    ]


def test_amm_second_moment_ignores_zero_rows():
    """A zero row gives the amm trial a single skip branch with q = 1."""
    a = ZeroOneMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    padded = ZeroOneMatrix(a.rows + 3000, a.cols, a.row_masks + (0,) * 3000)
    assert amm_trial_second_moment(padded) == amm_trial_second_moment(a) == 318


def test_wide_matrix_stays_fast():
    """24 columns is within the cap and finishes promptly for a sparse matrix."""
    rows = [[1 if j in (i, i + 1) else 0 for j in range(24)] for i in range(12)]
    a = ZeroOneMatrix.from_rows(rows)
    assert count_all_matchings(a) == brute_force_matching_count(a)
