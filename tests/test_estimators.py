"""Randomized estimators: unbiasedness over all coin paths, trial mechanics."""

import math
import time
from fractions import Fraction

import pytest

from matchcount import estimators
from matchcount.ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble
from matchcount.errors import CapacityError, DomainError, ShapeError
from matchcount.estimators import (
    Method,
    TrialStats,
    amm_trial,
    outcome_distribution,
    rm_trial,
    run_trials,
    transformed_equivalence_check,
)
from matchcount.exact import (
    amm_trial_second_moment,
    count_all_matchings,
    permanent_ryser,
    rm_trial_second_moment,
)
from matchcount.matrix import ZeroOneMatrix, build_transformed
from matchcount.streams import RandomStream


def all_matrices(m, n):
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))
    return enumerate_ensemble(spec)


def dist_mean(dist):
    return sum((v * p for v, p in dist.items()), Fraction(0))


def dist_second_moment(dist):
    return sum((v * v * p for v, p in dist.items()), Fraction(0))


def test_amm_trial_range_and_determinism():
    a = ZeroOneMatrix.ones(3, 3)
    seen = set()
    for t in range(200):
        x = amm_trial(a, RandomStream(3, t))
        assert 1 <= x <= 4**3
        seen.add(x)
    assert len(seen) > 1
    again = [amm_trial(a, RandomStream(3, t)) for t in range(200)]
    assert again == [amm_trial(a, RandomStream(3, t)) for t in range(200)]


def test_rm_trial_zero_when_no_perfect_matching():
    a = ZeroOneMatrix.zeros(2, 2)
    assert all(rm_trial(a, RandomStream(0, t)) == 0 for t in range(20))
    with pytest.raises(ShapeError):
        rm_trial(ZeroOneMatrix.ones(2, 3), RandomStream(0, 0))


def test_rm_trial_exact_on_permutation_matrix():
    a = ZeroOneMatrix.identity(3)
    assert all(rm_trial(a, RandomStream(0, t)) == 1 for t in range(20))


def test_trial_outputs_pinned():
    """Seeded outputs of both estimators, rm on a square matrix with dead
    trials and amm on a rectangular one, fixed so a refactor of the trial
    walk cannot move the streams."""
    square = ZeroOneMatrix.from_rows([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]])
    assert [rm_trial(square, RandomStream(11, t)) for t in range(12)] == [
        0, 9, 12, 9, 12, 0, 0, 6, 12, 0, 12, 6
    ]
    wide = ZeroOneMatrix.from_rows([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 0, 1]])
    assert [amm_trial(wide, RandomStream(11, t)) for t in range(12)] == [
        48, 64, 36, 64, 48, 48, 64, 36, 48, 48, 48, 36
    ]


def test_amm_zero_rows_draw_nothing():
    """A row with no free 1-column has only the skip branch, so it neither
    changes the output nor moves the stream."""
    a = ZeroOneMatrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    padded = ZeroOneMatrix.from_rows([[0, 0, 0], [1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]])
    assert [amm_trial(padded, RandomStream(8, t)) for t in range(40)] == [
        amm_trial(a, RandomStream(8, t)) for t in range(40)
    ]


def test_run_trials_calls_the_public_trial_once_per_trial(monkeypatch):
    """Counting calls of amm_trial and rm_trial counts trials."""
    calls = {"amm_trial": 0, "rm_trial": 0}
    for name in calls:
        trial = getattr(estimators, name)

        def counted(a, stream, name=name, trial=trial):
            calls[name] += 1
            return trial(a, stream)

        monkeypatch.setattr(estimators, name, counted)
    a = ZeroOneMatrix.ones(3, 3)
    run_trials(a, Method.AMM, 7, seed=1)
    run_trials(a, Method.RM, 5, seed=1, first_trial=3)
    assert calls == {"amm_trial": 7, "rm_trial": 5}


def test_outcome_distribution_known():
    dist = outcome_distribution(ZeroOneMatrix.ones(2, 2), Method.AMM)
    assert dist == {9: Fraction(1, 3), 6: Fraction(2, 3)}
    dist = outcome_distribution(ZeroOneMatrix.zeros(2, 2), Method.RM)
    assert dist == {0: Fraction(1)}


def test_outcome_distribution_has_no_recursion_limit():
    """Thousands of rows, one coin path each: output 1 with probability 1."""
    assert outcome_distribution(ZeroOneMatrix.identity(2000), Method.RM) == {1: Fraction(1)}
    assert outcome_distribution(ZeroOneMatrix.zeros(3000, 2), Method.AMM) == {1: Fraction(1)}


def test_outcome_distribution_cap():
    """ones(m, 2) under amm holds about m^3 / 5 entries: refused, quickly."""
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        outcome_distribution(ZeroOneMatrix.ones(400, 2), Method.AMM)
    assert time.perf_counter() - start < 1


def test_amm_unbiased_over_all_coin_paths():
    """Exact expectation equals the matching count on every small matrix."""
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                dist = outcome_distribution(a, Method.AMM)
                assert sum(dist.values()) == 1
                assert dist_mean(dist) == count_all_matchings(a)
                assert dist_second_moment(dist) == amm_trial_second_moment(a)


def test_rm_unbiased_over_all_coin_paths():
    for n in range(4):
        for a in all_matrices(n, n):
            dist = outcome_distribution(a, Method.RM)
            assert sum(dist.values()) == 1
            assert dist_mean(dist) == permanent_ryser(a)
            assert dist_second_moment(dist) == rm_trial_second_moment(a)


def test_trial_stats_merge():
    a = TrialStats(2, 10, 60)
    b = TrialStats(3, 9, 33)
    c = a + b
    assert (c.trials, c.total, c.total_sq) == (5, 19, 93)
    assert c.mean == Fraction(19, 5)
    assert c.second_moment == Fraction(93, 5)
    assert c.variance == Fraction(93, 5) - Fraction(19, 5) ** 2
    assert TrialStats(0, 0, 0) + a == a
    with pytest.raises(DomainError):
        TrialStats(0, 0, 0).mean


def test_run_trials_deterministic():
    a = ZeroOneMatrix.ones(3, 3)
    base = run_trials(a, Method.AMM, 500, seed=7)
    assert base == run_trials(a, Method.AMM, 500, seed=7)
    assert base != run_trials(a, Method.AMM, 500, seed=8)


def test_run_trials_range_split_merges():
    a = ZeroOneMatrix.ones(3, 3)
    whole = run_trials(a, Method.RM, 400, seed=5)
    first = run_trials(a, Method.RM, 150, seed=5)
    rest = run_trials(a, Method.RM, 250, seed=5, first_trial=150)
    assert first + rest == whole


def test_run_trials_validation():
    with pytest.raises(DomainError):
        run_trials(ZeroOneMatrix.ones(2, 2), Method.AMM, 0, seed=0)
    with pytest.raises(ShapeError):
        run_trials(ZeroOneMatrix.ones(2, 3), Method.RM, 10, seed=0)


def test_run_trials_sample_mean_near_truth():
    """10^4 draws on the 3x3 all-ones matrix: mean within 4 standard errors."""
    a = ZeroOneMatrix.ones(3, 3)
    truth = count_all_matchings(a)
    stats = run_trials(a, Method.AMM, 10**4, seed=42)
    se = math.sqrt(stats.variance / stats.trials)
    assert abs(stats.mean - truth) < 4 * se
    ratio = stats.empirical_ratio
    exact = Fraction(amm_trial_second_moment(a), truth**2)
    assert abs(float(ratio) - float(exact)) < 0.2


def law_mean(law):
    return sum((v * p for v, p in law.items()), Fraction(0))


def test_transformed_equivalence_exhaustive_small():
    for n in (1, 2):
        for a in all_matrices(n, n):
            law = transformed_equivalence_check(a)
            assert law == outcome_distribution(a, Method.AMM)
            assert law_mean(law) == count_all_matchings(a)


def test_transformed_equivalence_3x3():
    a = ZeroOneMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    law = transformed_equivalence_check(a)
    assert law == outcome_distribution(a, Method.AMM)
    assert law == {
        9: Fraction(1, 9), 12: Fraction(1, 6), 18: Fraction(1, 2), 27: Fraction(2, 9)
    }
    assert law_mean(law) == count_all_matchings(a) == 18


def test_transformed_equivalence_cap_edges():
    assert transformed_equivalence_check(ZeroOneMatrix.ones(0, 0)) == {1: Fraction(1)}
    ones = ZeroOneMatrix.ones(6, 6)
    assert law_mean(transformed_equivalence_check(ones)) == count_all_matchings(ones)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        transformed_equivalence_check(ZeroOneMatrix.ones(7, 7))
    assert time.perf_counter() - start < 1
    with pytest.raises(ShapeError):
        transformed_equivalence_check(ZeroOneMatrix.ones(2, 3))


def test_transformed_rm_never_dies():
    """Every rm trial on the block transform is positive and divisible by n!."""
    for n in (1, 2, 3):
        for a in all_matrices(n, n):
            b = build_transformed(a)
            for t in range(30):
                y = rm_trial(b, RandomStream(17, t))
                assert y > 0
                assert y % math.factorial(n) == 0


def test_transformed_distribution_identity():
    """Scaled rm-on-transform distribution equals the amm distribution exactly.

    Recomputed here from outcome_distribution directly, independent of
    transformed_equivalence_check, for every square matrix with n <= 2.
    """
    for n in (1, 2):
        nfact = math.factorial(n)
        for a in all_matrices(n, n):
            amm_dist = outcome_distribution(a, Method.AMM)
            rm_dist = outcome_distribution(build_transformed(a), Method.RM)
            scaled = {}
            for y, p in rm_dist.items():
                assert y % nfact == 0
                scaled[y // nfact] = scaled.get(y // nfact, Fraction(0)) + p
            assert scaled == amm_dist
