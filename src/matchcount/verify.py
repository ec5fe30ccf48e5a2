"""Self-verification: production algorithms against independent oracles.

Each check runs a dual route to the same numbers (row sweep vs
per-matching enumeration, permanent route vs direct count, closed form vs
ensemble enumeration, coin-path expectation vs exact count) and fails loudly
with the offending matrix serialized in the detail, so a corrupted build
points straight at a counterexample.

Two tiers: "small" is exhaustive over tiny shapes and runs in seconds;
"full" adds the 4x4 exhaustive sweep, random 8x8 ratio-bound checks, the
peak sandwich up to n = 100 and the disjoint-union factorisation of count
and profile.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

from .ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble, sample_matrix
from .errors import EquivalenceViolationError
from .estimators import (
    Method,
    outcome_distribution,
    run_trials,
    transformed_equivalence_check,
)
from .exact import (
    amm_trial_second_moment,
    count_all_matchings,
    count_matchings_via_permanent,
    critical_ratio,
    matching_profile,
    permanent_ryser,
    rm_trial_second_moment,
)
from .matrix import ZeroOneMatrix, read_matrix, write_matrix
from .moments import (
    MomentStatistic,
    bernoulli_mean_matchings,
    bernoulli_second_moment,
    bernoulli_second_moment_closed_form,
    edge_count_mean_matchings,
    edge_count_second_moment,
    ensemble_moment_oracle,
    majority_tail,
    mean_matchings_bounds,
)
from .oracles import brute_force_matching_count, brute_force_matching_profile, permanent_naive
from .streams import RandomStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: float = 0.0


def _fail(name: str, a: ZeroOneMatrix, message: str) -> CheckResult:
    return CheckResult(name, False, f"{message}; counterexample:\n{write_matrix(a)}")


def _bernoulli_half(m: int, n: int) -> EnsembleSpec:
    return EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))


_SMALL_SHAPES = [(m, n) for m in range(1, 4) for n in range(1, 4)]


def check_count_vs_enumeration(shapes=None) -> CheckResult:
    """count_all_matchings against per-matching brute-force enumeration."""
    name = "count-vs-enumeration"
    shapes = _SMALL_SHAPES if shapes is None else shapes
    seen = 0
    for m, n in shapes:
        for a in enumerate_ensemble(_bernoulli_half(m, n)):
            expect = brute_force_matching_count(a)
            got = count_all_matchings(a)
            if got != expect:
                return _fail(name, a, f"count {got}, enumeration says {expect}")
            seen += 1
    return CheckResult(name, True, f"{seen} matrices agree")


def check_profile_vs_enumeration() -> CheckResult:
    """matching_profile against brute-force enumeration by size, plus sum check."""
    name = "profile-vs-enumeration"
    seen = 0
    for m, n in _SMALL_SHAPES:
        for a in enumerate_ensemble(_bernoulli_half(m, n)):
            expect = brute_force_matching_profile(a)
            got = matching_profile(a)
            if got != expect:
                return _fail(name, a, f"profile {got}, enumeration says {expect}")
            if sum(got) != count_all_matchings(a):
                return _fail(name, a, f"profile sum {sum(got)} != count")
            seen += 1
    return CheckResult(name, True, f"{seen} profiles agree")


def check_permanent_vs_naive() -> CheckResult:
    """permanent_ryser against the permutation-sum definition, squares n <= 3."""
    name = "permanent-vs-naive"
    seen = 0
    for n in range(4):
        for a in enumerate_ensemble(_bernoulli_half(n, n)):
            expect = permanent_naive(a)
            got = permanent_ryser(a)
            if got != expect:
                return _fail(name, a, f"ryser {got}, naive says {expect}")
            seen += 1
    return CheckResult(name, True, f"{seen} permanents agree")


def check_permanent_route(sides=range(4), samples=0, seed=2024) -> CheckResult:
    """count_matchings_via_permanent == count_all_matchings.

    Exhaustive over the square sides given; optionally `samples` random
    fair-coin matrices per side in {4, 5, 6} on top.
    """
    name = "permanent-route"
    seen = 0
    for n in sides:
        for a in enumerate_ensemble(_bernoulli_half(n, n)):
            if count_matchings_via_permanent(a) != count_all_matchings(a):
                return _fail(name, a, "permanent route disagrees with direct count")
            seen += 1
    for n in (4, 5, 6):
        spec = _bernoulli_half(n, n)
        for t in range(samples):
            a = sample_matrix(spec, RandomStream(seed, t + n * samples))
            if count_matchings_via_permanent(a) != count_all_matchings(a):
                return _fail(name, a, "permanent route disagrees with direct count")
            seen += 1
    return CheckResult(name, True, f"{seen} matrices agree")


def check_amm_unbiased() -> CheckResult:
    """Coin-path expectation of amm trials equals the exact matching count."""
    name = "amm-unbiased"
    seen = 0
    for m, n in _SMALL_SHAPES:
        for a in enumerate_ensemble(_bernoulli_half(m, n)):
            dist = outcome_distribution(a, Method.AMM)
            mean = sum((v * p for v, p in dist.items()), Fraction(0))
            if mean != count_all_matchings(a):
                return _fail(name, a, f"path expectation {mean} != count")
            if sum(dist.values()) != 1:
                return _fail(name, a, "path probabilities do not sum to 1")
            if any(v < 1 for v in dist):
                return _fail(name, a, "amm produced an output below 1")
            seen += 1
    return CheckResult(name, True, f"{seen} matrices unbiased")


def check_rm_unbiased() -> CheckResult:
    """Coin-path expectation of rm trials equals the permanent, squares n <= 3."""
    name = "rm-unbiased"
    seen = 0
    for n in range(1, 4):
        for a in enumerate_ensemble(_bernoulli_half(n, n)):
            dist = outcome_distribution(a, Method.RM)
            mean = sum((v * p for v, p in dist.items()), Fraction(0))
            if mean != permanent_ryser(a):
                return _fail(name, a, f"path expectation {mean} != permanent")
            seen += 1
    return CheckResult(name, True, f"{seen} matrices unbiased")


def check_second_moments_exact() -> CheckResult:
    """Weighted row sweeps for E[X^2] match the coin-path second moments."""
    name = "second-moments-exact"
    seen = 0
    for m, n in _SMALL_SHAPES:
        for a in enumerate_ensemble(_bernoulli_half(m, n)):
            dist = outcome_distribution(a, Method.AMM)
            path = sum((v * v * p for v, p in dist.items()), Fraction(0))
            if path != amm_trial_second_moment(a):
                return _fail(name, a, f"amm second moment {path} != sweep")
            if m == n:
                dist = outcome_distribution(a, Method.RM)
                path = sum((v * v * p for v, p in dist.items()), Fraction(0))
                if path != rm_trial_second_moment(a):
                    return _fail(name, a, f"rm second moment {path} != sweep")
            seen += 1
    return CheckResult(name, True, f"{seen} matrices agree")


def check_transformed_equivalence() -> CheckResult:
    """Exhaustive distribution equality of amm-on-A and scaled rm-on-transformed."""
    name = "transformed-equivalence"
    seen = 0
    for n in range(1, 3):
        for a in enumerate_ensemble(_bernoulli_half(n, n)):
            try:
                transformed_equivalence_check(a)
            except EquivalenceViolationError as exc:
                return _fail(name, a, str(exc))
            seen += 1
    return CheckResult(name, True, f"{seen} matrices equivalent")


def check_ratio_bound() -> CheckResult:
    """Critical ratio of amm at most (cols + 1) ** rows, exhaustive small shapes."""
    name = "ratio-bound"
    seen = 0
    for m, n in _SMALL_SHAPES:
        for a in enumerate_ensemble(_bernoulli_half(m, n)):
            ratio = critical_ratio(a, Method.AMM)
            if ratio > (n + 1) ** m:
                return _fail(name, a, f"ratio {ratio} above ({n}+1)^{m}")
            seen += 1
    return CheckResult(name, True, f"{seen} ratios bounded")


def _interleaved_union(a: ZeroOneMatrix, b: ZeroOneMatrix) -> ZeroOneMatrix:
    """Block-diagonal [[a, 0], [0, b]] with the rows of a and b alternating."""
    top = list(a.row_masks)
    bottom = [mask << a.cols for mask in b.row_masks]
    rows = []
    for k in range(max(a.rows, b.rows)):
        rows += top[k:k + 1] + bottom[k:k + 1]
    return ZeroOneMatrix(a.rows + b.rows, a.cols + b.cols, tuple(rows))


def check_component_product(samples=150, seed=2024) -> CheckResult:
    """Count and profile of a disjoint union: product and convolution of the blocks.

    Each sample draws two fair-coin blocks of random shape up to 4x4 and
    interleaves their rows in a block-diagonal union; the expected values
    come from enumerating each block on its own.
    """
    name = "component-product"
    shapes = RandomStream(seed, 0)
    for t in range(samples):
        a, b = (
            sample_matrix(
                _bernoulli_half(1 + shapes.randbelow(4), 1 + shapes.randbelow(4)),
                RandomStream(seed, 2 * t + k + 1),
            )
            for k in range(2)
        )
        union = _interleaved_union(a, b)
        expect = brute_force_matching_count(a) * brute_force_matching_count(b)
        got = count_all_matchings(union)
        if got != expect:
            return _fail(name, union, f"count {got}, product of the blocks {expect}")
        pa, pb = brute_force_matching_profile(a), brute_force_matching_profile(b)
        expect = [
            sum(pa[i] * pb[k - i] for i in range(len(pa)) if 0 <= k - i < len(pb))
            for k in range(len(pa) + len(pb) - 1)
        ]
        got = matching_profile(union)
        if got != expect:
            return _fail(name, union, f"profile {got}, convolution of the blocks {expect}")
    return CheckResult(name, True, f"{samples} interleaved unions factor")


def check_ratio_bound_random(n=8, samples=100, seed=2024) -> CheckResult:
    """Critical ratio bound on random fair-coin n x n matrices."""
    name = "ratio-bound-random"
    spec = _bernoulli_half(n, n)
    for t in range(samples):
        a = sample_matrix(spec, RandomStream(seed, t))
        ratio = critical_ratio(a, Method.AMM)
        if ratio > (n + 1) ** n:
            return _fail(name, a, f"ratio {ratio} above ({n}+1)^{n}")
    return CheckResult(name, True, f"{samples} random {n}x{n} ratios bounded")


def check_mean_formula() -> CheckResult:
    """Fair-coin mean formula against ensemble enumeration, m <= n <= 3."""
    name = "mean-formula"
    spots = {(1, 1): Fraction(3, 2), (2, 2): Fraction(7, 2)}
    for n in range(4):
        for m in range(n + 1):
            formula = bernoulli_mean_matchings(m, n)
            oracle = ensemble_moment_oracle(_bernoulli_half(m, n), MomentStatistic.MEAN_COUNT)
            if formula != oracle:
                return CheckResult(
                    name, False, f"m={m} n={n}: formula {formula}, enumeration {oracle}"
                )
            if (m, n) in spots and formula != spots[(m, n)]:
                return CheckResult(name, False, f"m={m} n={n}: {formula} != {spots[(m, n)]}")
    return CheckResult(name, True, "all m <= n <= 3 agree with enumeration")


def check_second_moment_formula() -> CheckResult:
    """Averaged estimator second moment: recurrence vs enumeration and closed form."""
    name = "second-moment-formula"
    for n in range(4):
        for m in range(n + 1):
            formula = bernoulli_second_moment(m, n)
            oracle = ensemble_moment_oracle(
                _bernoulli_half(m, n), MomentStatistic.MEAN_TRIAL_SECOND_MOMENT
            )
            if formula != oracle:
                return CheckResult(
                    name, False, f"m={m} n={n}: recurrence {formula}, enumeration {oracle}"
                )
    if bernoulli_second_moment(1, 1) != Fraction(5, 2):
        return CheckResult(name, False, f"(1,1) gives {bernoulli_second_moment(1, 1)}, not 5/2")
    for n in range(9):
        for m in range(n + 1):
            dp = bernoulli_second_moment(m, n)
            closed = bernoulli_second_moment_closed_form(m, n)
            if dp != closed:
                return CheckResult(name, False, f"m={m} n={n}: recurrence {dp} != closed {closed}")
    return CheckResult(name, True, "recurrence, closed form and enumeration agree")


def check_edge_count_formulas() -> CheckResult:
    """Fixed-ones mean and second moment against ensemble enumeration, n <= 3."""
    name = "edge-count-formulas"
    for n in range(1, 4):
        for m in range(n * n + 1):
            spec = EnsembleSpec(EnsembleKind.EXACT_ONES, m, n)
            mean = edge_count_mean_matchings(n, m)
            mean_oracle = ensemble_moment_oracle(spec, MomentStatistic.MEAN_COUNT)
            if mean != mean_oracle:
                return CheckResult(
                    name, False, f"n={n} m={m}: mean {mean}, enumeration {mean_oracle}"
                )
            second = edge_count_second_moment(n, m)
            second_oracle = ensemble_moment_oracle(spec, MomentStatistic.MEAN_COUNT_SQUARED)
            if second != second_oracle:
                return CheckResult(
                    name, False, f"n={n} m={m}: second moment {second}, enumeration {second_oracle}"
                )
    spots = edge_count_mean_matchings(2, 1), edge_count_mean_matchings(2, 4)
    if spots != (Fraction(2), Fraction(7)):
        return CheckResult(name, False, f"spot means {spots} != (2, 7)")
    if edge_count_second_moment(2, 4) != 49:
        return CheckResult(name, False, "spot second moment at n=2 m=4 is not 49")
    return CheckResult(name, True, "all n <= 3 agree with enumeration")


def check_majority_tail() -> CheckResult:
    """Tail spots and its safe properties: nonincreasing in eps, never above 1/2."""
    name = "majority-tail"
    if majority_tail(2, Fraction(1, 50)) != Fraction(5, 16):
        return CheckResult(name, False, f"tail(2, 1/50) = {majority_tail(2, Fraction(1, 50))}")
    if majority_tail(1, Fraction(1, 50)) != Fraction(1, 2):
        return CheckResult(name, False, f"tail(1, 1/50) = {majority_tail(1, Fraction(1, 50))}")
    grid = [Fraction(1, 1000), Fraction(1, 200), Fraction(1, 100), Fraction(1, 50)]
    for n in range(1, 11):
        tails = [majority_tail(n, eps) for eps in grid]
        for early, late in zip(tails, tails[1:]):
            if late > early:
                return CheckResult(name, False, f"tail increases in eps at n={n}")
        if any(t > Fraction(1, 2) for t in tails):
            return CheckResult(name, False, f"tail above 1/2 at n={n}")
    return CheckResult(name, True, "spots exact, nonincreasing in eps, never above 1/2")


def check_peak_sandwich(lo=2, hi=100) -> CheckResult:
    """peak <= mean <= (n+1) peak for square fair-coin means; n*peak recorded."""
    name = "peak-sandwich"
    n_peak_fails = []
    for n in range(lo, hi + 1):
        bounds = mean_matchings_bounds(n)
        if not (bounds.peak_le_mean and bounds.mean_le_upper):
            return CheckResult(name, False, f"sandwich fails at n={n}: {bounds}")
        if not bounds.mean_le_n_peak:
            n_peak_fails.append(n)
    note = f"n*peak exceeded at n in {n_peak_fails}" if n_peak_fails else "n*peak held throughout"
    return CheckResult(name, True, f"sandwich holds for {lo} <= n <= {hi}; {note}")


def check_matrix_roundtrip(samples=200, seed=2024) -> CheckResult:
    """write_matrix then read_matrix is the identity on random matrices."""
    name = "matrix-roundtrip"
    stream = RandomStream(seed, 0)
    for t in range(samples):
        m = 1 + stream.randbelow(6)
        n = 1 + stream.randbelow(6)
        a = sample_matrix(_bernoulli_half(m, n), RandomStream(seed, t + 1))
        if read_matrix(write_matrix(a)) != a:
            return _fail(name, a, "roundtrip changed the matrix")
    return CheckResult(name, True, f"{samples} matrices roundtrip")


def check_trial_determinism() -> CheckResult:
    """run_trials over uneven disjoint ranges merges to the one-run stats."""
    name = "trial-determinism"
    a = ZeroOneMatrix.ones(4, 4)
    base = run_trials(a, Method.AMM, 400, seed=7)
    merged = (
        run_trials(a, Method.AMM, 150, seed=7)
        + run_trials(a, Method.AMM, 1, seed=7, first_trial=150)
        + run_trials(a, Method.AMM, 249, seed=7, first_trial=151)
    )
    ranges = "ranges 0..150, 150..151, 151..400"
    if merged != base:
        return CheckResult(name, False, f"merged {ranges} disagree with one run")
    return CheckResult(name, True, f"{ranges} merge to the one-run stats")


SMALL_CHECKS = [
    check_count_vs_enumeration,
    check_profile_vs_enumeration,
    check_permanent_vs_naive,
    check_permanent_route,
    check_amm_unbiased,
    check_rm_unbiased,
    check_second_moments_exact,
    check_transformed_equivalence,
    check_ratio_bound,
    check_mean_formula,
    check_second_moment_formula,
    check_edge_count_formulas,
    check_majority_tail,
    check_matrix_roundtrip,
    check_trial_determinism,
]


def _check_count_4x4() -> CheckResult:
    return check_count_vs_enumeration(shapes=[(4, 4)])


FULL_EXTRAS = [
    _check_count_4x4,
    check_ratio_bound_random,
    check_peak_sandwich,
    check_component_product,
]


def run_suite(tier: str = "small") -> list[CheckResult]:
    """Run one tier ("small" or "full") and return per-check results with timing."""
    if tier not in ("small", "full"):
        raise ValueError(f"unknown tier {tier!r}, expected 'small' or 'full'")
    checks = SMALL_CHECKS + (FULL_EXTRAS if tier == "full" else [])
    results = []
    for check in checks:
        start = time.perf_counter()
        result = check()
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(result.name, result.passed, result.detail, elapsed))
    return results
