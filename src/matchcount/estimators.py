"""Unbiased one-sample estimators for matching counts and permanents.

Both estimators sweep the rows once.  At each row the set W of available
1-columns is formed; a branch is chosen uniformly at random and the running
output is multiplied by |W| (the number of branches):

  rm   W is just the available 1-columns.  Empty W means no perfect matching
       can be completed, the trial returns 0.  E[output] = permanent.
  amm  W additionally contains a "skip this row" branch, ordered before the
       column branches.  The trial never dies and the output is always a
       positive integer.  E[output] = total matching count.

Trials are driven by RandomStream (seed, trial index), so a run is a pure
function of (matrix, method, seed, trial range) no matter how trials are
chunked across workers.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .errors import DomainError, EquivalenceViolationError, ShapeError, UndefinedRatioError
from .matrix import ZeroOneMatrix, build_transformed
from .streams import RandomStream


class Method(str, Enum):
    RM = "rm"
    AMM = "amm"


def _nth_set_bit(mask: int, k: int) -> int:
    """The k-th (0-based, from the low end) set bit of mask, as a one-bit mask."""
    for _ in range(k):
        mask &= mask - 1
    return mask & -mask


def rm_trial(a: ZeroOneMatrix, stream: RandomStream) -> int:
    """One perfect-matching estimate; unbiased for the permanent."""
    if not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    avail = (1 << a.cols) - 1
    y = 1
    for mask in a.row_masks:
        choices = mask & avail
        q = choices.bit_count()
        if q == 0:
            return 0
        avail ^= _nth_set_bit(choices, stream.randbelow(q))
        y *= q
    return y


def amm_trial(a: ZeroOneMatrix, stream: RandomStream) -> int:
    """One matching-count estimate; unbiased for the total matching count.

    Branch 0 is the skip branch, branches 1..|W| the available columns in
    increasing index order.  Output is a positive integer at most
    (cols + 1) ** rows.
    """
    avail = (1 << a.cols) - 1
    y = 1
    for mask in a.row_masks:
        choices = mask & avail
        q = choices.bit_count() + 1
        pick = stream.randbelow(q)
        if pick > 0:
            avail ^= _nth_set_bit(choices, pick - 1)
        y *= q
    return y


@dataclass(frozen=True)
class TrialStats:
    """Exact integer accumulators over a batch of trials.

    Stats from disjoint trial ranges merge with +; all derived quantities are
    Fractions computed from the integer sums, so merging then deriving equals
    deriving over the union.
    """

    trials: int
    total: int
    total_sq: int

    @classmethod
    def empty(cls) -> "TrialStats":
        return cls(0, 0, 0)

    def __add__(self, other: "TrialStats") -> "TrialStats":
        return TrialStats(
            self.trials + other.trials,
            self.total + other.total,
            self.total_sq + other.total_sq,
        )

    def _require_trials(self):
        if self.trials == 0:
            raise DomainError("no trials accumulated")

    @property
    def mean(self) -> Fraction:
        self._require_trials()
        return Fraction(self.total, self.trials)

    @property
    def second_moment(self) -> Fraction:
        self._require_trials()
        return Fraction(self.total_sq, self.trials)

    @property
    def variance(self) -> Fraction:
        return self.second_moment - self.mean**2

    @property
    def empirical_ratio(self) -> Fraction:
        """Sample E[X^2] / E[X]^2; undefined when the sample mean is 0."""
        mean = self.mean
        if mean == 0:
            raise UndefinedRatioError("sample mean is 0, empirical ratio undefined")
        return self.second_moment / mean**2


def run_trials(
    a: ZeroOneMatrix,
    method: Method,
    trials: int,
    seed: int,
    workers: int = 1,
    first_trial: int = 0,
) -> TrialStats:
    """Run trials first_trial .. first_trial + trials - 1, one stream each.

    Trial t always draws from RandomStream(seed, t), so the result is
    identical for any worker count and any split; workers > 1 only chunks the
    range across threads.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if method is Method.RM and not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    trial = rm_trial if method is Method.RM else amm_trial

    def run_range(bounds: tuple[int, int]) -> TrialStats:
        lo, hi = bounds
        total = total_sq = 0
        for t in range(lo, hi):
            x = trial(a, RandomStream(seed, t))
            total += x
            total_sq += x * x
        return TrialStats(hi - lo, total, total_sq)

    lo, hi = first_trial, first_trial + trials
    if workers <= 1:
        return run_range((lo, hi))
    step = -(-trials // workers)
    chunks = [(t, min(t + step, hi)) for t in range(lo, hi, step)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(run_range, chunks)
        return sum(parts, TrialStats.empty())


def outcome_distribution(a: ZeroOneMatrix, method: Method) -> dict[int, Fraction]:
    """Exact distribution of one trial's output, over all coin paths.

    Enumerates the estimator's decision tree with memoization on (row,
    available columns); probabilities are exact Fractions summing to 1.
    Exponential in the worst case, intended for small matrices.
    """
    if method is Method.RM and not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    masks = a.row_masks
    m = a.rows
    memo: dict[tuple[int, int], dict[int, Fraction]] = {}

    def dist(i: int, avail: int) -> dict[int, Fraction]:
        if i == m:
            return {1: Fraction(1)}
        key = (i, avail)
        hit = memo.get(key)
        if hit is not None:
            return hit
        choices = masks[i] & avail
        branches = []
        if method is Method.AMM:
            branches.append(dist(i + 1, avail))
        elif choices == 0:
            memo[key] = {0: Fraction(1)}
            return memo[key]
        rest = choices
        while rest:
            bit = rest & -rest
            branches.append(dist(i + 1, avail ^ bit))
            rest ^= bit
        q = len(branches)
        out: dict[int, Fraction] = {}
        for child in branches:
            for v, p in child.items():
                key_v = q * v
                out[key_v] = out.get(key_v, Fraction(0)) + p / q
        memo[key] = out
        return out

    return dist(0, (1 << a.cols) - 1)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing amm-on-A against rm-on-transformed-A / n!."""

    n: int
    exhaustive: bool
    match: bool
    trials: int
    tv_distance: Fraction | None
    amm_mean: Fraction
    rm_scaled_mean: Fraction


def transformed_equivalence_check(
    a: ZeroOneMatrix,
    trials: int = 10000,
    seed: int = 0,
    tv_tolerance: Fraction = Fraction(1, 20),
) -> EquivalenceReport:
    """Check that rm on the transformed matrix, divided by n!, behaves like amm on a.

    In the 2n x 2n block form every top row keeps its private identity column
    and the bottom all-ones block contributes a deterministic n! factor, so
    rm there never returns 0 and its output is always divisible by n!.  For
    n <= 2 the two outcome distributions are compared exhaustively and any
    mismatch raises EquivalenceViolationError.  For larger n the comparison
    is two-sample: `trials` draws of each, matched on total variation
    distance of the empirical distributions.
    """
    if not a.is_square:
        raise ShapeError(f"equivalence check needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    b = build_transformed(a)
    nfact = factorial(n)

    if n <= 2:
        amm_dist = outcome_distribution(a, Method.AMM)
        rm_dist = outcome_distribution(b, Method.RM)
        scaled: dict[int, Fraction] = {}
        for y, p in rm_dist.items():
            if y % nfact != 0:
                raise EquivalenceViolationError(
                    f"rm output {y} on the transformed matrix is not divisible by {n}!"
                )
            scaled[y // nfact] = scaled.get(y // nfact, Fraction(0)) + p
        if scaled != amm_dist:
            raise EquivalenceViolationError(
                f"distributions differ: amm {amm_dist}, scaled rm {scaled}"
            )
        mean = sum((v * p for v, p in amm_dist.items()), Fraction(0))
        return EquivalenceReport(n, True, True, 0, None, mean, mean)

    amm_counts: dict[int, int] = {}
    rm_counts: dict[int, int] = {}
    amm_total = rm_total = 0
    for t in range(trials):
        x = amm_trial(a, RandomStream(seed, t))
        amm_counts[x] = amm_counts.get(x, 0) + 1
        amm_total += x
        y = rm_trial(b, RandomStream(seed, trials + t))
        if y % nfact != 0:
            raise EquivalenceViolationError(
                f"rm output {y} on the transformed matrix is not divisible by {n}!"
            )
        z = y // nfact
        rm_counts[z] = rm_counts.get(z, 0) + 1
        rm_total += z
    support = set(amm_counts) | set(rm_counts)
    tv = (
        sum(abs(amm_counts.get(v, 0) - rm_counts.get(v, 0)) for v in support)
        * Fraction(1, 2 * trials)
    )
    return EquivalenceReport(
        n,
        False,
        tv <= tv_tolerance,
        trials,
        tv,
        Fraction(amm_total, trials),
        Fraction(rm_total, trials),
    )
