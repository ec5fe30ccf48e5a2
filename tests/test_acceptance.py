"""Acceptance suite: one test per release criterion, each printing a summary.

Run with -v for the per-criterion pass/fail lines.  Criterion 11 is expected
to fail: the exact binomial tail is a step function of eps, so "strictly
decreasing" cannot hold between nearby eps values, and for odd n the tail
equals exactly 1/2 near eps = 0.  The test states the criterion faithfully
and reports the violations instead of hiding them.
"""

import csv
import math
import time
from fractions import Fraction

from matchcount.ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble, sample_matrix
from matchcount.estimators import Method, outcome_distribution, run_trials, \
    transformed_equivalence_check
from matchcount.exact import (
    amm_trial_second_moment,
    count_all_matchings,
    critical_ratio,
    permanent_ryser,
)
from matchcount.cli import main
from matchcount.moments import (
    bernoulli_mean_matchings,
    bernoulli_second_moment,
    bernoulli_second_moment_closed_form,
    edge_count_mean_matchings,
    edge_count_second_moment,
    ensemble_moment_oracle,
    majority_tail,
    mean_matchings_bounds,
    meets_power_threshold,
)
from matchcount.oracles import brute_force_matching_count
from matchcount.streams import RandomStream
from matchcount.verify import check_permanent_route


def bernoulli_half(m, n):
    return EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))


def test_criterion_01_exact_count_vs_enumeration():
    """Exact count equals brute-force enumeration, exhaustive to 4x4."""
    start = time.perf_counter()
    seen = 0
    shapes = [(m, n) for m in range(4) for n in range(4)] + [(4, 4)]
    for m, n in shapes:
        for a in enumerate_ensemble(bernoulli_half(m, n)):
            assert count_all_matchings(a) == brute_force_matching_count(a)
            seen += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 1: {seen} matrices agree in {elapsed:.1f}s")
    assert seen == sum(2 ** (m * n) for m in range(4) for n in range(4)) + 65536
    assert elapsed < 120


def test_criterion_02_permanent_route_identity():
    """Matching count via the 2n x 2n permanent equals the direct count."""
    result = check_permanent_route(sides=range(4), samples=500, seed=2024)
    print(f"criterion 2: {result.detail}")
    assert result.passed, result.detail
    # exhaustive n <= 3 plus 500 random matrices at each of n = 4, 5, 6
    assert "2031 matrices" in result.detail


def test_criterion_03_estimators_unbiased():
    """Coin-path expectations equal the exact count (amm) and permanent (rm)."""
    seen_amm = seen_rm = 0
    for m in range(4):
        for n in range(4):
            for a in enumerate_ensemble(bernoulli_half(m, n)):
                dist = outcome_distribution(a, Method.AMM)
                assert sum(dist.values()) == 1
                mean = sum((v * p for v, p in dist.items()), Fraction(0))
                assert mean == count_all_matchings(a)
                seen_amm += 1
                if m == n:
                    dist = outcome_distribution(a, Method.RM)
                    assert sum(dist.values()) == 1
                    mean = sum((v * p for v, p in dist.items()), Fraction(0))
                    assert mean == permanent_ryser(a)
                    seen_rm += 1
    print(f"criterion 3: unbiased on {seen_amm} matrices (amm), {seen_rm} (rm)")


def test_criterion_04_transformed_distribution_equivalence():
    """Scaled rm on the block transform has exactly the amm outcome law, n <= 2."""
    seen = 0
    for n in (1, 2):
        for a in enumerate_ensemble(bernoulli_half(n, n)):
            assert transformed_equivalence_check(a) == outcome_distribution(a, Method.AMM)
            seen += 1
    print(f"criterion 4: exact distribution equality on {seen} square matrices")


def test_criterion_05_ratio_bound():
    """Critical ratio of amm at most (cols + 1) ** rows, exact comparison."""
    seen = 0
    for m in range(4):
        for n in range(4):
            for a in enumerate_ensemble(bernoulli_half(m, n)):
                assert critical_ratio(a, Method.AMM) <= (n + 1) ** m
                seen += 1
    spec = bernoulli_half(8, 8)
    worst = Fraction(0)
    for t in range(100):
        a = sample_matrix(spec, RandomStream(2024, t))
        ratio = critical_ratio(a, Method.AMM)
        worst = max(worst, ratio)
        assert ratio <= 9**8
        seen += 1
    print(f"criterion 5: {seen} ratios bounded; worst random 8x8 ratio {float(worst):.3f}")


def test_criterion_06_bernoulli_mean_formula():
    """Closed-form mean matches exhaustive averages, spots, and a Monte Carlo run."""
    for n in range(4):
        for m in range(n + 1):
            oracle = ensemble_moment_oracle(bernoulli_half(m, n), count_all_matchings)
            assert bernoulli_mean_matchings(m, n) == oracle
    assert bernoulli_mean_matchings(1, 1) == Fraction(3, 2)
    assert bernoulli_mean_matchings(2, 2) == Fraction(7, 2)

    draws = 10**4
    spec = bernoulli_half(6, 6)
    total = total_sq = 0
    for t in range(draws):
        x = count_all_matchings(sample_matrix(spec, RandomStream(11, t)))
        total += x
        total_sq += x * x
    sample_mean = Fraction(total, draws)
    sample_var = (Fraction(total_sq) - Fraction(total**2, draws)) / (draws - 1)
    se = math.sqrt(sample_var / draws)
    truth = bernoulli_mean_matchings(6, 6)
    gap = abs(float(sample_mean - truth))
    print(f"criterion 6: n=6 sample mean {float(sample_mean):.1f} vs {float(truth):.1f}, "
          f"gap {gap / se:.2f} standard errors")
    assert gap < 4 * se


def test_criterion_07_bernoulli_second_moment_formula():
    """Second-moment recurrence matches exhaustive averages and the closed form."""
    for n in range(4):
        for m in range(n + 1):
            oracle = ensemble_moment_oracle(
                bernoulli_half(m, n), amm_trial_second_moment
            )
            assert bernoulli_second_moment(m, n) == oracle
    assert bernoulli_second_moment(1, 1) == Fraction(5, 2)
    pairs = 0
    for n in range(9):
        for m in range(n + 1):
            assert bernoulli_second_moment(m, n) == bernoulli_second_moment_closed_form(m, n)
            pairs += 1
    print(f"criterion 7: oracle match to n=3; dual routes agree on {pairs} (m, n) pairs")


def test_criterion_08_peak_sandwich():
    """peak <= mean <= (n+1) peak for 2 <= n <= 100, with the n*peak record."""
    start = time.perf_counter()
    n_peak_fails = []
    for n in range(2, 101):
        bounds = mean_matchings_bounds(n)
        assert bounds.peak <= bounds.mean <= (n + 1) * bounds.peak
        if not bounds.mean_le_n_peak:
            n_peak_fails.append(n)
    elapsed = time.perf_counter() - start
    note = f"n*peak bound failed at n in {n_peak_fails}" if n_peak_fails \
        else "n*peak bound held for every n"
    print(f"criterion 8: sandwich exact for 2 <= n <= 100 in {elapsed:.1f}s; {note}")
    assert elapsed < 60


def test_criterion_09_edge_count_formulas():
    """Fixed-ones mean and second moment match exhaustive averages and spots."""
    for n in range(1, 4):
        for m in range(n * n + 1):
            spec = EnsembleSpec(EnsembleKind.EXACT_ONES, m, n)
            assert edge_count_mean_matchings(n, m) == \
                ensemble_moment_oracle(spec, count_all_matchings)
            assert edge_count_second_moment(n, m) == \
                ensemble_moment_oracle(spec, lambda a: count_all_matchings(a) ** 2)
    assert edge_count_mean_matchings(2, 1) == 2
    assert edge_count_mean_matchings(2, 4) == 7
    assert edge_count_second_moment(2, 4) == 49
    print("criterion 9: formulas match enumeration for n <= 3, all m; spots exact")


def test_criterion_10_ratio_scan_observational(tmp_path):
    """ratio-scan to n = 40 completes; every ratio > 1; threshold recorded per n."""
    start = time.perf_counter()
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--n-range", "1:40", "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["n"]) for r in rows] == list(range(1, 41))
    hits = []
    for row in rows:
        n = int(row["n"])
        ratio = Fraction(row["ratio"])
        assert ratio > 1
        recorded = row["ratio-ge-threshold"] == "true"
        assert recorded == meets_power_threshold(ratio, n)
        if recorded:
            hits.append(n)
    elapsed = time.perf_counter() - start
    print(f"criterion 10: scan of n = 1..40 in {elapsed:.1f}s; "
          f"ratio >= n^(sqrt(n)/2) observed at n in {hits or 'no n'} (recorded, not asserted)")
    assert elapsed < 300


def test_criterion_11_majority_tail_strict_decrease():
    """Exact tail spot, then strict decrease in eps and < 1/2 for 2 <= n <= 10.

    The spot value passes.  The rest is genuinely false of the exact binomial
    tail: it is a step function of eps (constant between jumps of the ceiling
    index), and for odd n it equals exactly 1/2 once eps is small enough that
    the lower limit reaches the median (n^2 + 1) / 2.  n = 1 is excluded
    because tail(1, eps) = 1/2 for the whole legal eps range.  The assert
    below states the criterion as written and is expected to fail; the table
    printed first shows every violation.
    """
    assert majority_tail(2, Fraction(1, 50)) == Fraction(5, 16)

    grid = [Fraction(1, 1000), Fraction(1, 200), Fraction(1, 100), Fraction(1, 50)]
    half = Fraction(1, 2)
    violations = []
    for n in range(2, 11):
        tails = [majority_tail(n, eps) for eps in grid]
        flat = [i for i in range(3) if tails[i] == tails[i + 1]]
        at_half = [grid[i] for i in range(4) if tails[i] >= half]
        print(f"criterion 11: n={n} tails {[str(t) for t in tails]}"
              f"{'; constant between grid points ' + str(flat) if flat else ''}"
              f"{'; equals 1/2 at eps ' + str([str(e) for e in at_half]) if at_half else ''}")
        if flat:
            violations.append(f"n={n}: not strictly decreasing (flat at {flat})")
        if at_half:
            violations.append(f"n={n}: tail not below 1/2 at eps {[str(e) for e in at_half]}")
    assert not violations, (
        "exact binomial tail is a step function of eps and hits exactly 1/2 "
        "for odd n near eps = 0: " + "; ".join(violations)
    )


def test_criterion_12_trial_determinism():
    """run_trials is a pure function of (matrix, method, trials, seed)."""
    a = sample_matrix(bernoulli_half(6, 6), RandomStream(2024, 0))
    for method in (Method.AMM, Method.RM):
        base = run_trials(a, method, 1000, seed=2024)
        split = run_trials(a, method, 400, seed=2024) + run_trials(
            a, method, 600, seed=2024, first_trial=400
        )
        assert split == base
    print("criterion 12: a range split gives the one-run stats, both methods")
