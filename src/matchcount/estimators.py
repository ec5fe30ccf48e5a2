"""Unbiased one-sample estimators for matching counts and permanents.

Both estimators sweep the rows once.  At each row the set W of available
1-columns is formed; a branch is chosen uniformly at random and the running
output is multiplied by |W| (the number of branches):

  rm   W is just the available 1-columns.  Empty W means no perfect matching
       can be completed, the trial returns 0.  E[output] = permanent.
  amm  W additionally contains a "skip this row" branch, ordered before the
       column branches.  The trial never dies and the output is always a
       positive integer.  E[output] = total matching count.

Trial t draws from RandomStream(seed, t), and _outputs is the one place that
builds those streams, so a run is a pure function of (matrix, method, seed,
trial range) and stats over disjoint ranges merge to the stats of their union.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .errors import DomainError, EquivalenceViolationError, ShapeError, UndefinedRatioError
from .matrix import ZeroOneMatrix, build_transformed
from .streams import RandomStream


# Largest total variation distance of a sampled equivalence check that still matches.
TV_TOLERANCE = Fraction(1, 20)


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


def _outputs(a: ZeroOneMatrix, method: Method, seed: int, lo: int, hi: int):
    """Outputs of trials lo .. hi - 1; trial t draws from RandomStream(seed, t)."""
    trial = rm_trial if method is Method.RM else amm_trial
    for t in range(lo, hi):
        yield trial(a, RandomStream(seed, t))


def run_trials(
    a: ZeroOneMatrix,
    method: Method,
    trials: int,
    seed: int,
    first_trial: int = 0,
) -> TrialStats:
    """Run trials first_trial .. first_trial + trials - 1, one stream each.

    Trial t always draws from RandomStream(seed, t), so stats of disjoint
    ranges merged with + equal the stats of one run over their union.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if method is Method.RM and not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    total = total_sq = 0
    for x in _outputs(a, method, seed, first_trial, first_trial + trials):
        total += x
        total_sq += x * x
    return TrialStats(trials, total, total_sq)


def outcome_distribution(a: ZeroOneMatrix, method: Method) -> dict[int, Fraction]:
    """Exact distribution of one trial's output, over all coin paths.

    Walks the estimator's decision tree depth first with an explicit stack,
    memoized on (row, available columns), so tall inputs do not hit the
    recursion limit; probabilities are exact Fractions summing to 1.
    Exponential in the worst case, intended for small matrices.
    """
    if method is Method.RM and not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    m = a.rows
    if m == 0:
        return {1: Fraction(1)}
    masks = a.row_masks
    skip = method is Method.AMM
    full = (1 << a.cols) - 1
    # memo[i][avail]: distribution of the output of rows i.. given avail
    memo: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(m)]
    stack = [(0, full)]
    while stack:
        i, avail = stack[-1]
        if avail in memo[i]:
            stack.pop()
            continue
        # branch order: skip (amm only), then the available columns, low first
        branches = [avail] if skip else []
        rest = masks[i] & avail
        while rest:
            bit = rest & -rest
            branches.append(avail ^ bit)
            rest ^= bit
        q = len(branches)
        if q == 0 or i + 1 == m:
            # rm found no column (output 0), or every branch ends the trial
            memo[i][avail] = {q: Fraction(1)}
            continue
        below = memo[i + 1]
        pending = [(i + 1, child) for child in branches if child not in below]
        if pending:
            stack += pending
            continue
        out: dict[int, Fraction] = {}
        for child in branches:
            for v, p in below[child].items():
                key_v = q * v
                out[key_v] = out.get(key_v, Fraction(0)) + p / q
        memo[i][avail] = out
    return memo[0][full]


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
    a: ZeroOneMatrix, trials: int = 10000, seed: int = 0
) -> EquivalenceReport:
    """Check that rm on the transformed matrix, divided by n!, behaves like amm on a.

    In the 2n x 2n block form every top row keeps its private identity column
    and the bottom all-ones block contributes a deterministic n! factor, so
    rm there never returns 0 and its output is always divisible by n!.  For
    n <= 2 the two outcome distributions are compared exhaustively and any
    mismatch raises EquivalenceViolationError.  For larger n the comparison
    is two-sample: `trials` draws of each, matched when the total variation
    distance of the empirical distributions is at most TV_TOLERANCE.
    """
    if not a.is_square:
        raise ShapeError(f"equivalence check needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    b = build_transformed(a)
    nfact = factorial(n)

    def scaled(y: int) -> int:
        if y % nfact != 0:
            raise EquivalenceViolationError(
                f"rm output {y} on the transformed matrix is not divisible by {n}!"
            )
        return y // nfact

    if n <= 2:
        amm_dist = outcome_distribution(a, Method.AMM)
        scaled_dist: dict[int, Fraction] = {}
        for y, p in outcome_distribution(b, Method.RM).items():
            key = scaled(y)
            scaled_dist[key] = scaled_dist.get(key, Fraction(0)) + p
        if scaled_dist != amm_dist:
            raise EquivalenceViolationError(
                f"distributions differ: amm {amm_dist}, scaled rm {scaled_dist}"
            )
        mean = sum((v * p for v, p in amm_dist.items()), Fraction(0))
        return EquivalenceReport(n, True, True, 0, None, mean, mean)

    # amm draws streams 0 .. trials - 1, rm streams trials .. 2 * trials - 1
    amm_counts = Counter(_outputs(a, Method.AMM, seed, 0, trials))
    rm_counts = Counter(map(scaled, _outputs(b, Method.RM, seed, trials, 2 * trials)))
    support = amm_counts.keys() | rm_counts.keys()
    tv = Fraction(sum(abs(amm_counts[v] - rm_counts[v]) for v in support), 2 * trials)
    return EquivalenceReport(
        n,
        False,
        tv <= TV_TOLERANCE,
        trials,
        tv,
        Fraction(sum(v * c for v, c in amm_counts.items()), trials),
        Fraction(sum(v * c for v, c in rm_counts.items()), trials),
    )
