"""Unbiased one-sample estimators for matching counts and permanents.

Both estimators sweep the rows once.  At each row the set W of available
1-columns is formed; a branch is chosen uniformly at random and the running
output is multiplied by |W| (the number of branches):

  rm   W is just the available 1-columns.  Empty W means no perfect matching
       can be completed, the trial returns 0.  E[output] = permanent.
  amm  W additionally contains a "skip this row" branch, ordered before the
       column branches.  The trial never dies and the output is always a
       positive integer.  E[output] = total matching count.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .errors import (
    CapacityError,
    DomainError,
    EquivalenceViolationError,
    ShapeError,
    UndefinedRatioError,
)
from .matrix import ZeroOneMatrix, build_transformed
from .streams import RandomStream


# Largest side whose two exact laws transformed_equivalence_check compares: the
# all-ones matrix, the worst case, takes about 0.13 s at 6x6 and 0.63 s at 7x7
# (CPython 3.11, one core of a 2-vCPU Xeon).
MAX_EQUIVALENCE_SIDE = 6
# Most (output, probability) entries outcome_distribution holds over all its
# memoized laws: 16 times the 4,095 of side-6 equivalence, its largest use in
# the package.  ones(m, 2) under amm, whose entries grow like m^3, is admitted
# up to m = 71 (0.37 s) and refused within about 0.4 s above that (one core of
# a 2-vCPU Xeon).
MAX_OUTCOME_ENTRIES = 2**16


class Method(str, Enum):
    RM = "rm"
    AMM = "amm"


def _nth_set_bit(mask: int, k: int) -> int:
    """The k-th (0-based, from the low end) set bit of mask, as a one-bit mask."""
    for _ in range(k):
        mask &= mask - 1
    return mask & -mask


def _walk(a: ZeroOneMatrix, stream: RandomStream, skip: int) -> int:
    """One trial with `skip` (0 or 1) skip branches per row.

    Row by row, q = skip + |free 1-columns| and the output is multiplied by
    q; pick = randbelow(q) - skip takes the pick-th free column, low first,
    and a negative pick skips the row.  q = 0 ends the trial with output 0.
    """
    avail = (1 << a.cols) - 1
    y = 1
    for mask in a.row_masks:
        choices = mask & avail
        q = choices.bit_count() + skip
        if q == 0:
            return 0
        pick = stream.randbelow(q) - skip
        if pick >= 0:
            avail ^= _nth_set_bit(choices, pick)
        y *= q
    return y


def rm_trial(a: ZeroOneMatrix, stream: RandomStream) -> int:
    """One perfect-matching estimate; unbiased for the permanent."""
    if not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    return _walk(a, stream, 0)


def amm_trial(a: ZeroOneMatrix, stream: RandomStream) -> int:
    """One matching-count estimate; unbiased for the total matching count.

    Branch 0 is the skip branch, branches 1..|W| the available columns in
    increasing index order.  Output is a positive integer at most
    (cols + 1) ** rows.
    """
    return _walk(a, stream, 1)


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
    trial = rm_trial if method is Method.RM else amm_trial
    total = total_sq = 0
    for t in range(first_trial, first_trial + trials):
        x = trial(a, RandomStream(seed, t))
        total += x
        total_sq += x * x
    return TrialStats(trials, total, total_sq)


def outcome_distribution(a: ZeroOneMatrix, method: Method) -> dict[int, Fraction]:
    """Exact distribution of one trial's output, over all coin paths.

    Walks the estimator's decision tree depth first with an explicit stack,
    memoized on (row, available columns), so tall inputs do not hit the
    recursion limit; probabilities are exact Fractions summing to 1.
    Exponential in the worst case, intended for small matrices: more than
    MAX_OUTCOME_ENTRIES entries over all memoized laws raise CapacityError.
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
    entries = 0
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
            out = {q: Fraction(1)}
        else:
            below = memo[i + 1]
            pending = [(i + 1, child) for child in branches if child not in below]
            if pending:
                stack += pending
                continue
            out = {}
            for child in branches:
                for v, p in below[child].items():
                    key_v = q * v
                    out[key_v] = out.get(key_v, Fraction(0)) + p / q
        entries += len(out)
        if entries > MAX_OUTCOME_ENTRIES:
            raise CapacityError(
                f"outcome_distribution supports at most {MAX_OUTCOME_ENTRIES} "
                f"outcome entries over its memoized laws, {a.rows}x{a.cols} needs more"
            )
        memo[i][avail] = out
    return memo[0][full]


def transformed_equivalence_check(a: ZeroOneMatrix) -> dict[int, Fraction]:
    """The exact law of amm on a, checked to equal that of rm on the transform / n!.

    In the 2n x 2n block form every top row keeps its private identity column
    and the bottom all-ones block contributes a deterministic n! factor, so
    rm there never returns 0 and its output is always divisible by n!.  Both
    coin-path laws are computed exactly; an output not divisible by n! or
    any difference between the laws raises EquivalenceViolationError.  Sides
    above MAX_EQUIVALENCE_SIDE raise CapacityError.
    """
    if not a.is_square:
        raise ShapeError(f"equivalence check needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if n > MAX_EQUIVALENCE_SIDE:
        raise CapacityError(
            f"equivalence check is capped at side {MAX_EQUIVALENCE_SIDE}, got {n}x{n}"
        )
    nfact = factorial(n)
    amm_law = outcome_distribution(a, Method.AMM)
    rm_law: dict[int, Fraction] = {}
    for y, p in outcome_distribution(build_transformed(a), Method.RM).items():
        if y % nfact != 0:
            raise EquivalenceViolationError(
                f"rm output {y} on the transformed matrix is not divisible by {n}!"
            )
        rm_law[y // nfact] = rm_law.get(y // nfact, Fraction(0)) + p
    if rm_law != amm_law:
        raise EquivalenceViolationError(
            f"distributions differ: amm {amm_law}, scaled rm {rm_law}"
        )
    return amm_law
