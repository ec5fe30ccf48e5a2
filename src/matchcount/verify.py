"""Self-verification: production algorithms against independent oracles.

Each check runs a dual route to the same numbers (row sweep vs
per-matching enumeration, permanent route vs direct count, closed form vs
ensemble enumeration, coin-path law vs exact count and second moment) and
fails loudly with the offending matrix (or formula grid point) in the
detail, so a corrupted build points straight at a counterexample.

Every check is one `_each` call: a compare function run over a stream of
cases.  The first mismatch, or the first exception a route raises, fails
that check with the case as counterexample, and the suite goes on to the
next check.

Two tiers: "small" runs 12 checks, exhaustive over tiny shapes, in
seconds; fair-coin-formulas and edge-count-formulas check each ensemble's
moment formulas against one enumeration per grid point.  "full" adds nine:
the 4x4 exhaustive sweep, the transform equivalence on every 3x3 matrix,
both fixed-ones moments over every 4x4 matrix with 4, 8 or 12 ones (each
check named for its shape), random 8x8 ratio-bound checks, the peak
sandwich peak <= mean <= n peak up to n = 100, the disjoint-union
factorisation of count and profile, closed-form counts and profiles of
all-ones, band and identity matrices at full width, the exact crossover of
the ensemble ratio at n = 357 with two routes per moment, and ratio-scan's
carried columns against the direct mean sum, the second moment's closed
form and a fresh first row of the tail, whose own second route is its
definition sum.

Production routes and oracles are looked up by module-global name when a
check runs, so a patched or wrapped function is the one checked.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import chain
from math import ceil, comb, factorial
from typing import NamedTuple

from .ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble, sample_matrix
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
    bernoulli_mean_matchings,
    bernoulli_second_moment,
    bernoulli_second_moment_closed_form,
    carried_moments,
    edge_count_mean_matchings,
    edge_count_second_moment,
    ensemble_moment_oracle,
    majority_tail,
    mean_matchings_bounds,
    meets_power_threshold,
    ratio_scan_columns,
)
from .oracles import brute_force_matching_profile, permanent_naive
from .streams import RandomStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: float


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


def _each(name: str, cases, compare, noun: str) -> CheckResult:
    """Run compare over cases and time the loop.  compare(case) returns a
    mismatch message or a false value; the first message, or the first
    exception compare raises, fails the check with str(case) as
    counterexample (a matrix's str is its text format), else the detail is
    "N <noun>".  Only Exception is caught, so KeyboardInterrupt still stops
    the suite."""
    start = time.perf_counter()
    seen, failure = 0, None
    for case in cases:
        try:
            message = compare(case)
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
        if message:
            failure = f"{message}; counterexample:\n{case}"
            break
        seen += 1
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(name, failure is None, failure or f"{seen} {noun}", elapsed)


def check_profile_vs_enumeration(shapes=_SMALL_SHAPES, suffix="") -> CheckResult:
    """matching_profile against brute-force enumeration by size, and
    count_all_matchings against the profile's sum."""

    def compare(a):
        got, expect = matching_profile(a), brute_force_matching_profile(a)
        if got != expect:
            return f"profile {got}, enumeration says {expect}"
        return sum(got) != count_all_matchings(a) and f"profile sum {sum(got)} != count"

    matrices = _fair_coin_matrices(shapes)
    return _each("profile-vs-enumeration" + suffix, matrices, compare, "profiles agree")


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


def check_transformed_equivalence(shapes=_SQUARES[1:3], suffix="") -> CheckResult:
    """Exact law equality of amm-on-A and scaled rm-on-transformed, exhaustive."""

    def compare(a):
        transformed_equivalence_check(a)  # raises EquivalenceViolationError on a mismatch

    matrices = _fair_coin_matrices(shapes)
    return _each("transformed-equivalence" + suffix, matrices, compare, "matrices equivalent")


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


class _Blocks(tuple):
    """Two matrices, shown as their texts one after the other."""

    def __str__(self) -> str:
        return "".join(map(str, self))


def check_component_product() -> CheckResult:
    """Count and profile of a disjoint union: product and convolution of the blocks.

    Each of 150 samples draws two fair-coin blocks of random shape up to 4x4 and
    interleaves their rows in a block-diagonal union; the expected values
    come from enumerating each block's profile once, on its own.
    """
    shapes = RandomStream(_SEED, 0)
    pairs = (
        _Blocks(
            sample_matrix(
                _bernoulli_half(1 + shapes.randbelow(4), 1 + shapes.randbelow(4)),
                RandomStream(_SEED, 2 * t + k + 1),
            )
            for k in range(2)
        )
        for t in range(150)
    )

    def compare(blocks):
        a, b = blocks
        union = _interleaved_union(a, b)
        pa, pb = brute_force_matching_profile(a), brute_force_matching_profile(b)
        expect = sum(pa) * sum(pb)
        got = count_all_matchings(union)
        if got != expect:
            return f"union count {got}, product of the blocks {expect}"
        expect = [
            sum(pa[i] * pb[k - i] for i in range(len(pa)) if 0 <= k - i < len(pb))
            for k in range(len(pa) + len(pb) - 1)
        ]
        got = matching_profile(union)
        return got != expect and f"union profile {got}, convolution of the blocks {expect}"

    return _each("component-product", pairs, compare, "interleaved unions factor")


def _newton_gap(r: list[int]):
    """The first k at which the profile r breaks Newton's inequality
    r_k^2 k (nu - k) >= r_(k-1) r_(k+1) (k + 1) (nu - k + 1), 0 < k < nu,
    with nu the largest k with r_k > 0; None if none does."""
    nu = max(k for k, x in enumerate(r) if x)
    for k in range(1, nu):
        if r[k] ** 2 * k * (nu - k) < r[k - 1] * r[k + 1] * (k + 1) * (nu - k + 1):
            return k
    return None


def check_closed_forms() -> CheckResult:
    """Count and profile at full width against closed forms that share no
    mechanics with the sweep, on components of both layers:
    profile(ones(m, n))_k = C(m, k) C(n, k) k! for m <= 12, m <= n <= 14 and
    the transposes; the n x n bidiagonal band is a path on 2n vertices, so
    it has F(2n + 1) matchings, n <= 24; and identity(n) has C(n, k)
    k-edge matchings and 2^n in all, n <= 64.  The matching polynomial has
    only real roots (Heilmann and Lieb, 1972), so every profile must also
    meet Newton's inequalities."""
    known = {}  # matrix -> (profile or None, count)
    for m in range(13):
        for n in range(m, 15):
            for rows, cols in ((m, n), (n, m)):
                profile = [comb(rows, k) * comb(cols, k) * factorial(k) for k in range(cols + 1)]
                known[ZeroOneMatrix.ones(rows, cols)] = profile, sum(profile)
    fib = [0, 1]
    while len(fib) < 50:
        fib.append(fib[-1] + fib[-2])
    for n in range(25):
        band = ZeroOneMatrix(n, n, tuple((0b11 << i) & ((1 << n) - 1) for i in range(n)))
        known[band] = None, fib[2 * n + 1]
    for n in range(65):
        known[ZeroOneMatrix.identity(n)] = [comb(n, k) for k in range(n + 1)], 2**n

    def compare(a):
        want, total = known[a]
        count = count_all_matchings(a)
        if count != total:
            return f"count {count}, closed form {total}"
        if want is not None:
            profile = matching_profile(a)
            if profile != want:
                return f"profile {profile}, closed form {want}"
            k = _newton_gap(profile)
            return k is not None and f"profile {profile} breaks Newton's inequality at k = {k}"

    return _each("closed-forms", known, compare, "matrices match their closed forms")


def _moments_vs_enumeration(spec, moments, spots, point, axes: str):
    """The first disagreement of moments, (label, route, value, statistic)
    each, with one enumeration of spec that averages every statistic, or
    with a spot value keyed by (label, *point); None if all agree."""
    oracle = ensemble_moment_oracle(spec, *(statistic for *_, statistic in moments))
    for (label, route, got, _), want in zip(moments, oracle):
        if got != want:
            return f"{label} {route} {got}, enumeration {want} at {axes}"
        spot = spots.get((label, *point), got)
        if got != spot:
            return f"{label} {route} {got}, spot {spot} at {axes}"


def check_fair_coin_formulas() -> CheckResult:
    """Fair-coin moments at every m <= n <= 8: the second-moment recurrence
    against its closed form, and where n <= 3 the mean formula and the
    recurrence against one ensemble enumeration, plus three spots."""
    spots = {("mean", 1, 1): Fraction(3, 2), ("mean", 2, 2): Fraction(7, 2),
             ("second moment", 1, 1): Fraction(5, 2)}

    def compare(mn):
        second, closed = bernoulli_second_moment(*mn), bernoulli_second_moment_closed_form(*mn)
        if second != closed:
            return f"second moment recurrence {second}, closed form {closed} at (m, n)"
        if mn[1] <= 3:
            moments = [
                ("mean", "formula", bernoulli_mean_matchings(*mn), count_all_matchings),
                ("second moment", "recurrence", second, amm_trial_second_moment),
            ]
            return _moments_vs_enumeration(_bernoulli_half(*mn), moments, spots, mn, "(m, n)")

    grid = [(m, n) for n in range(9) for m in range(n + 1)]
    noun = "(m, n) points agree with the closed form, and with enumeration where n <= 3"
    return _each("fair-coin-formulas", grid, compare, noun)


_EDGE_COUNT_GRID = [(n, m) for n in range(1, 4) for m in range(n * n + 1)]


def check_edge_count_formulas(grid=_EDGE_COUNT_GRID, suffix="") -> CheckResult:
    """Fixed-ones mean and second moment against one ensemble enumeration at
    each (n, m) of grid (by default n <= 3 and every m), plus three spots."""
    spots = {("mean", 2, 1): 2, ("mean", 2, 4): 7, ("second moment", 2, 4): 49}

    def compare(nm):
        n, m = nm
        count = lru_cache(maxsize=1)(count_all_matchings)  # the square reuses the count
        moments = [
            ("mean", "formula", edge_count_mean_matchings(n, m), count),
            ("second moment", "formula", edge_count_second_moment(n, m), lambda a: count(a) ** 2),
        ]
        spec = EnsembleSpec(EnsembleKind.EXACT_ONES, m, n)
        return _moments_vs_enumeration(spec, moments, spots, nm, "(n, m)")

    noun = "(n, m) points agree with enumeration"
    return _each("edge-count-formulas" + suffix, grid, compare, noun)


def check_majority_tail() -> CheckResult:
    """Tail against its definition sum, C(N, i) from math.comb summed over
    i >= ceil((1/2 + eps) N) and over 2^N with N = n^2, for 1 <= n <= 10 at
    four eps; spots; and its safe properties: nonincreasing in eps, never
    above 1/2."""
    grid = [Fraction(1, 1000), Fraction(1, 200), Fraction(1, 100), Fraction(1, 50)]
    spots = {1: Fraction(1, 2), 2: Fraction(5, 16)}  # at eps = 1/50

    def compare(n):
        tails = [majority_tail(n, eps) for eps in grid]
        for eps, tail in zip(grid, tails):
            lower = ceil((Fraction(1, 2) + eps) * n * n)
            if tail * 2 ** (n * n) != sum(comb(n * n, i) for i in range(lower, n * n + 1)):
                return f"tail at eps {eps} differs from the definition sum at n"
        if tails[-1] != spots.get(n, tails[-1]):
            return f"tail at eps 1/50 is {tails[-1]}, not {spots[n]}, at n"
        if any(late > early for early, late in zip(tails, tails[1:])):
            return "tail increases in eps at n"
        return max(tails) > Fraction(1, 2) and "tail above 1/2 at n"

    noun = "values of n: definition sums and spots exact, nonincreasing in eps, never above 1/2"
    return _each("majority-tail", range(1, 11), compare, noun)


def check_ratio_crossover() -> CheckResult:
    """The fair-coin ensemble ratio E[X^2] / E[X]^2 of n x n matrices is
    below n^(sqrt(n)/2) at n = 356 and at or above it at n = 357, decided
    exactly.  Both moments are carried across n, as ratio-scan computes
    them, and each has a second route: the mean its direct sum, the second
    moment its closed form."""

    def compare(n):
        _, mean, second = next(carried_moments(n, n))
        if mean != bernoulli_mean_matchings(n, n):
            return "carried mean differs from the per-n sum at n"
        if second != bernoulli_second_moment_closed_form(n, n):
            return "second moment differs from its closed form at n"
        meets = meets_power_threshold(second / mean**2, n)
        side = "meets" if meets else "is below"
        return meets != (n == 357) and f"ratio {side} n^(sqrt(n)/2) at n"

    noun = "values of n decided, two routes per moment: below at 356, met at 357"
    return _each("ratio-crossover", (356, 357), compare, noun)


class _ScanRange(NamedTuple):
    lo: int
    hi: int
    eps: Fraction

    def __str__(self) -> str:
        return f"ratio-scan --n-range {self.lo}:{self.hi} --eps {self.eps}"


def check_ratio_scan_columns() -> CheckResult:
    """ratio-scan's carried mean against its direct sum, second moment
    against its closed form and majority tail against a fresh first row, at
    every n <= 40 and at n = 100 and 200, for eps = 1/50 and 1/1000, and
    once from a start at lo = 33."""
    checked = {*range(1, 41), 100, 200}
    scans = [_ScanRange(1, 200, Fraction(1, 50)), _ScanRange(1, 200, Fraction(1, 1000)),
             _ScanRange(33, 100, Fraction(1, 50))]
    columns = ("mean", "second moment", "majority tail")
    closed_form = cache(bernoulli_second_moment_closed_form)  # shared by the scans

    def compare(scan):
        for n, *carried in ratio_scan_columns(*scan):
            if n not in checked:
                continue
            fresh = (bernoulli_mean_matchings(n, n), closed_form(n, n), majority_tail(n, scan.eps))
            for column, got, want in zip(columns, carried, fresh):
                if got != want:
                    return f"carried {column} differs from the per-n route at n = {n}"

    noun = "scans agree with the direct mean, closed form and fresh tail at every checked n"
    return _each("ratio-scan-columns", scans, compare, noun)


def check_peak_sandwich() -> CheckResult:
    """peak <= mean <= n peak <= (n+1) peak for square fair-coin means, 2 <= n <= 100."""

    def compare(n):
        b = mean_matchings_bounds(n)
        held = b.peak_le_mean and b.mean_le_n_peak and b.mean_le_upper
        return not held and f"sandwich {b} fails at n"

    noun = "values of n: peak <= mean <= n*peak <= (n+1)*peak"
    return _each("peak-sandwich", range(2, 101), compare, noun)


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
    a = ZeroOneMatrix.ones(4, 4)

    def compare(split):
        first, second, third = split
        merged = (
            run_trials(a, Method.AMM, first, seed=7)
            + run_trials(a, Method.AMM, second, seed=7, first_trial=first)
            + run_trials(a, Method.AMM, third, seed=7, first_trial=first + second)
        )
        base = run_trials(a, Method.AMM, sum(split), seed=7)
        return merged != base and "merged ranges disagree with one run"

    noun = "split of 400 trials, ranges 0..150, 150..151, 151..400, merges to the one-run stats"
    return _each("trial-determinism", [(150, 1, 249)], compare, noun)


SMALL_CHECKS = [
    check_profile_vs_enumeration,
    check_permanent_vs_naive,
    check_permanent_route,
    check_amm_unbiased,
    check_rm_unbiased,
    check_transformed_equivalence,
    check_ratio_bound,
    check_fair_coin_formulas,
    check_edge_count_formulas,
    check_majority_tail,
    check_matrix_roundtrip,
    check_trial_determinism,
]


FULL_EXTRAS = [
    partial(check_profile_vs_enumeration, shapes=[(4, 4)], suffix="-4x4"),
    partial(check_transformed_equivalence, shapes=[(3, 3)], suffix="-3x3"),
    check_ratio_bound_random,
    check_peak_sandwich,
    check_component_product,
    check_closed_forms,
    check_ratio_crossover,
    check_ratio_scan_columns,
    partial(check_edge_count_formulas, grid=[(4, 4), (4, 8), (4, 12)], suffix="-4x4"),
]


def run_suite(tier: str = "small") -> list[CheckResult]:
    """Run one tier ("small" or "full") and return per-check results with timing."""
    if tier not in ("small", "full"):
        raise ValueError(f"unknown tier {tier!r}, expected 'small' or 'full'")
    return [check() for check in SMALL_CHECKS + (FULL_EXTRAS if tier == "full" else [])]
