"""Self-verification: production algorithms against independent oracles.

Each check runs a dual route to the same numbers (row sweep vs
per-matching enumeration, permanent route vs direct count, closed form vs
ensemble enumeration, coin-path law vs exact count and second moment) and
fails loudly with the offending matrix serialized in the detail, so a
corrupted build points straight at a counterexample.

Two tiers: "small" is exhaustive over tiny shapes and runs in seconds;
"full" adds the 4x4 exhaustive sweep, random 8x8 ratio-bound checks, the
peak sandwich up to n = 100 and the disjoint-union factorisation of count
and profile.

Production routes and oracles are looked up by module-global name when a
check runs, so a patched or wrapped function is the one checked.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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


# Seed of every sampled matrix in the suite.
_SEED = 2024
_SMALL_SHAPES = [(m, n) for m in range(1, 4) for n in range(1, 4)]
_SQUARES = [(n, n) for n in range(4)]


def _fair_coin_matrices(shapes):
    """Every fair-coin matrix of each (rows, cols) shape, shape by shape."""
    for m, n in shapes:
        yield from enumerate_ensemble(_bernoulli_half(m, n))


def _each(name: str, matrices, compare, noun: str) -> CheckResult:
    """compare(a) returns a mismatch message or a false value; the first
    message fails the check with `a` as counterexample, else "N <noun>"."""
    seen = 0
    for a in matrices:
        message = compare(a)
        if message:
            return _fail(name, a, message)
        seen += 1
    return CheckResult(name, True, f"{seen} {noun}")


def check_count_vs_enumeration(shapes=_SMALL_SHAPES) -> CheckResult:
    """count_all_matchings against per-matching brute-force enumeration."""

    def compare(a):
        got, expect = count_all_matchings(a), brute_force_matching_count(a)
        return got != expect and f"count {got}, enumeration says {expect}"

    return _each("count-vs-enumeration", _fair_coin_matrices(shapes), compare, "matrices agree")


def check_profile_vs_enumeration() -> CheckResult:
    """matching_profile against brute-force enumeration by size, plus sum check."""

    def compare(a):
        got, expect = matching_profile(a), brute_force_matching_profile(a)
        if got != expect:
            return f"profile {got}, enumeration says {expect}"
        return sum(got) != count_all_matchings(a) and f"profile sum {sum(got)} != count"

    matrices = _fair_coin_matrices(_SMALL_SHAPES)
    return _each("profile-vs-enumeration", matrices, compare, "profiles agree")


def check_permanent_vs_naive() -> CheckResult:
    """permanent_ryser against the permutation-sum definition, squares n <= 3."""

    def compare(a):
        got, expect = permanent_ryser(a), permanent_naive(a)
        return got != expect and f"ryser {got}, naive says {expect}"

    return _each("permanent-vs-naive", _fair_coin_matrices(_SQUARES), compare, "permanents agree")


def check_permanent_route(sides=range(4), samples=0, seed=_SEED) -> CheckResult:
    """count_matchings_via_permanent == count_all_matchings.

    Exhaustive over the square sides given; optionally `samples` random
    fair-coin matrices per side in {4, 5, 6} on top.
    """
    sampled = (
        sample_matrix(_bernoulli_half(n, n), RandomStream(seed, t + n * samples))
        for n in (4, 5, 6)
        for t in range(samples)
    )
    return _each(
        "permanent-route",
        chain(_fair_coin_matrices((n, n) for n in sides), sampled),
        lambda a: count_matchings_via_permanent(a) != count_all_matchings(a)
        and "permanent route disagrees with direct count",
        "matrices agree",
    )


def _coin_path_law(method: Method, expectation, second_moment):
    """A compare for `method`'s exact coin-path law: total probability 1,
    mean expectation(a), E[X^2] second_moment(a), and for amm no output below 1."""

    def compare(a):
        dist = outcome_distribution(a, method)
        if sum(dist.values()) != 1:
            return "path probabilities do not sum to 1"
        for label, power, exact in (("mean", 1, expectation), ("E[X^2]", 2, second_moment)):
            path = sum((v**power * p for v, p in dist.items()), Fraction(0))
            want = exact(a)
            if path != want:
                return f"path {label} {path}, {exact.__name__} says {want}"
        return method is Method.AMM and min(dist) < 1 and "amm produced an output below 1"

    return compare


def check_amm_unbiased() -> CheckResult:
    """amm's coin-path law on every small shape: mean = count, E[X^2] = sweep."""
    compare = _coin_path_law(Method.AMM, count_all_matchings, amm_trial_second_moment)
    return _each("amm-unbiased", _fair_coin_matrices(_SMALL_SHAPES), compare, "matrices unbiased")


def check_rm_unbiased() -> CheckResult:
    """rm's coin-path law on squares n <= 3: mean = permanent, E[X^2] = sweep."""
    compare = _coin_path_law(Method.RM, permanent_ryser, rm_trial_second_moment)
    return _each("rm-unbiased", _fair_coin_matrices(_SQUARES[1:]), compare, "matrices unbiased")


def check_transformed_equivalence() -> CheckResult:
    """Exhaustive distribution equality of amm-on-A and scaled rm-on-transformed."""

    def compare(a):
        try:
            transformed_equivalence_check(a)
        except EquivalenceViolationError as exc:
            return str(exc)

    matrices = _fair_coin_matrices(_SQUARES[1:3])
    return _each("transformed-equivalence", matrices, compare, "matrices equivalent")


def _ratio_bounded(a: ZeroOneMatrix):
    ratio = critical_ratio(a, Method.AMM)
    bound = (a.cols + 1) ** a.rows
    return ratio > bound and f"ratio {ratio} above ({a.cols}+1)^{a.rows}"


def check_ratio_bound() -> CheckResult:
    """Critical ratio of amm at most (cols + 1) ** rows, exhaustive small shapes."""
    matrices = _fair_coin_matrices(_SMALL_SHAPES)
    return _each("ratio-bound", matrices, _ratio_bounded, "ratios bounded")


def check_ratio_bound_random() -> CheckResult:
    """Critical ratio bound on 100 random fair-coin 8x8 matrices."""
    matrices = (sample_matrix(_bernoulli_half(8, 8), RandomStream(_SEED, t)) for t in range(100))
    return _each("ratio-bound-random", matrices, _ratio_bounded, "random 8x8 ratios bounded")


def _interleaved_union(a: ZeroOneMatrix, b: ZeroOneMatrix) -> ZeroOneMatrix:
    """Block-diagonal [[a, 0], [0, b]] with the rows of a and b alternating."""
    top = list(a.row_masks)
    bottom = [mask << a.cols for mask in b.row_masks]
    rows = []
    for k in range(max(a.rows, b.rows)):
        rows += top[k:k + 1] + bottom[k:k + 1]
    return ZeroOneMatrix(a.rows + b.rows, a.cols + b.cols, tuple(rows))


def check_component_product() -> CheckResult:
    """Count and profile of a disjoint union: product and convolution of the blocks.

    Each of 150 samples draws two fair-coin blocks of random shape up to 4x4 and
    interleaves their rows in a block-diagonal union; the expected values
    come from enumerating each block on its own.
    """
    name = "component-product"
    samples = 150
    shapes = RandomStream(_SEED, 0)
    for t in range(samples):
        a, b = (
            sample_matrix(
                _bernoulli_half(1 + shapes.randbelow(4), 1 + shapes.randbelow(4)),
                RandomStream(_SEED, 2 * t + k + 1),
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


def check_peak_sandwich() -> CheckResult:
    """peak <= mean <= (n+1) peak for square fair-coin means, 2 <= n <= 100;
    n*peak recorded."""
    name = "peak-sandwich"
    n_peak_fails = []
    for n in range(2, 101):
        bounds = mean_matchings_bounds(n)
        if not (bounds.peak_le_mean and bounds.mean_le_upper):
            return CheckResult(name, False, f"sandwich fails at n={n}: {bounds}")
        if not bounds.mean_le_n_peak:
            n_peak_fails.append(n)
    note = f"n*peak exceeded at n in {n_peak_fails}" if n_peak_fails else "n*peak held throughout"
    return CheckResult(name, True, f"sandwich holds for 2 <= n <= 100; {note}")


def check_matrix_roundtrip() -> CheckResult:
    """write_matrix then read_matrix is the identity on 200 random matrices."""
    shapes = RandomStream(_SEED, 0)
    matrices = (
        sample_matrix(
            _bernoulli_half(1 + shapes.randbelow(6), 1 + shapes.randbelow(6)),
            RandomStream(_SEED, t + 1),
        )
        for t in range(200)
    )
    return _each(
        "matrix-roundtrip",
        matrices,
        lambda a: read_matrix(write_matrix(a)) != a and "roundtrip changed the matrix",
        "matrices roundtrip",
    )


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
