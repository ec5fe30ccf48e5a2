"""Exact counting: matchings, permanents, and estimator second moments.

Every production exact quantity comes from one forward sweep over the rows.
The state after row i is the set of columns used so far, as a bitmask, and
each state carries an integer weight.  Row i either skips (when skipping is
allowed) or takes one free 1-column, that is one in row_i & ~used:

    layer(i+1)[used]         += w(i, used) * layer(i)[used]     (skip)
    layer(i+1)[used | bit j] += w(i, used) * layer(i)[used]     (take j)

starting from layer(0) = {0: 1}.  The answer is the sum of the last layer,
which is the sum over all row-by-row paths of the product of their weights.
Two choices select the quantity:

    quantity                   skip   weight w(i, used)
    count_all_matchings        yes    1
    matching_profile           yes    1
    amm_trial_second_moment    yes    q = |row_i & ~used| + 1
    rm_trial_second_moment     no     q = |row_i & ~used|

The profile is the last layer bucketed by the number of used columns.  A
layer is dropped once the next one is built, so at most two layers of at
most 2^cols states each are alive and the row count only costs time.
Count and profile are invariant under transpose and sweep the narrower
side; the second moments describe estimators that walk the rows in input
order, so they always sweep the rows as given.  All arithmetic is Python
int, so counts never overflow or round.
"""

from fractions import Fraction
from math import factorial

from .errors import CapacityError, ShapeError, UndefinedRatioError
from .estimators import Method
from .matrix import ZeroOneMatrix, build_transformed

# The sweep holds up to 2^cols states per layer; 24 columns is the point
# where a dense worst case stops fitting in desk-scale memory.
MAX_RECURSION_COLS = 24
# Ryser's formula walks all 2^n column subsets.
MAX_RYSER_COLS = 20
# The permanent route builds a 2n x 2n matrix for Ryser, so n caps at 10.
MAX_TRANSFORM_SIDE = 10

MatchingProfile = list[int]


def _require_cols(a: ZeroOneMatrix, cap: int, what: str):
    if a.cols > cap:
        raise CapacityError(f"{what} supports at most {cap} columns, got {a.cols}")


def _sweep(masks, skip: bool, weighted: bool) -> dict[int, int]:
    """Last layer {used columns: weight sum} of the forward row sweep."""
    layer = {0: 1}
    for row in masks:
        nxt: dict[int, int] = {}
        get = nxt.get
        for used, value in layer.items():
            free = row & ~used
            if weighted:
                value *= free.bit_count() + skip
            if skip:
                nxt[used] = get(used, 0) + value
            while free:
                bit = free & -free
                key = used | bit
                nxt[key] = get(key, 0) + value
                free ^= bit
        layer = nxt
    return layer


def _narrow_masks(a: ZeroOneMatrix):
    """Row masks of a, or of its transpose when that has fewer columns."""
    if a.cols <= a.rows:
        return a.row_masks
    cols = [0] * a.cols
    for i, row in enumerate(a.row_masks):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def count_all_matchings(a: ZeroOneMatrix) -> int:
    """Total number of matchings of a, the empty matching included.

    Always at least 1.  Requires cols <= MAX_RECURSION_COLS.
    """
    _require_cols(a, MAX_RECURSION_COLS, "count_all_matchings")
    return sum(_sweep(_narrow_masks(a), True, False).values())


def matching_profile(a: ZeroOneMatrix) -> MatchingProfile:
    """Counts of k-edge matchings for k = 0 .. cols.

    Entry 0 is always 1 (the empty matching) and the entries sum to
    count_all_matchings(a).  A state of the count sweep that has used k
    columns ends k-edge matchings, so the profile buckets the last layer.
    """
    _require_cols(a, MAX_RECURSION_COLS, "matching_profile")
    counts = [0] * (a.cols + 1)
    for used, value in _sweep(_narrow_masks(a), True, False).items():
        counts[used.bit_count()] += value
    return counts


def permanent_ryser(a: ZeroOneMatrix) -> int:
    """Permanent by Ryser's inclusion-exclusion over column subsets.

    per(a) = sum over column subsets S of (-1)^(n - |S|) * prod_i |row_i & S|.
    Square input, n <= MAX_RYSER_COLS (2^n subsets are visited).
    """
    if not a.is_square:
        raise ShapeError(f"permanent needs a square matrix, got {a.rows}x{a.cols}")
    _require_cols(a, MAX_RYSER_COLS, "permanent_ryser")
    n = a.rows
    if n == 0:
        return 1
    masks = a.row_masks
    total = 0
    for subset in range(1, 1 << n):
        prod = 1
        for mask in masks:
            prod *= (mask & subset).bit_count()
            if not prod:
                break
        if (n - subset.bit_count()) & 1:
            total -= prod
        else:
            total += prod
    return total


def count_matchings_via_permanent(a: ZeroOneMatrix) -> int:
    """Total matching count of a square matrix through the permanent route.

    Builds the 2n x 2n block form [[A, I], [J, J]], takes its permanent with
    Ryser, and divides by n!.  Exists as a second, structurally different
    route to the same number as count_all_matchings; n <= MAX_TRANSFORM_SIDE.
    """
    if not a.is_square:
        raise ShapeError(f"permanent route needs a square matrix, got {a.rows}x{a.cols}")
    if a.rows > MAX_TRANSFORM_SIDE:
        raise CapacityError(
            f"permanent route supports n <= {MAX_TRANSFORM_SIDE}, got {a.rows}"
        )
    per = permanent_ryser(build_transformed(a))
    nfact = factorial(a.rows)
    assert per % nfact == 0, f"permanent {per} not divisible by {a.rows}!"
    return per // nfact


def amm_trial_second_moment(a: ZeroOneMatrix) -> int:
    """Exact E[X^2] for the skip-allowing estimator on a fixed matrix.

    At row i with used columns `used` a trial has q = |row_i & ~used| + 1
    equally likely branches (the skip branch plus one per free 1-column) and
    multiplies its output by q.  A path is taken with probability 1/prod(q)
    and outputs prod(q), so E[X^2] = sum over paths of prod(q): the weighted
    sweep with skipping.  The result is an exact integer.
    """
    _require_cols(a, MAX_RECURSION_COLS, "amm_trial_second_moment")
    return sum(_sweep(a.row_masks, True, True).values())


def rm_trial_second_moment(a: ZeroOneMatrix) -> int:
    """Exact E[Y^2] for the perfect-matching estimator on a square matrix.

    Same sweep as the skip-allowing moment minus the skip branch; a row with
    no free 1-column kills the trial, contributing 0.
    """
    if not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    _require_cols(a, MAX_RECURSION_COLS, "rm_trial_second_moment")
    return sum(_sweep(a.row_masks, False, True).values())


def critical_ratio(a: ZeroOneMatrix, method: Method) -> Fraction:
    """E[X^2] / E[X]^2 for one trial of the chosen estimator on a.

    The mean of the skip-allowing estimator is the total matching count
    (never zero); the mean of the perfect-matching estimator is the
    permanent, and a zero permanent leaves the ratio undefined.
    """
    if method is Method.AMM:
        mean = count_all_matchings(a)
        return Fraction(amm_trial_second_moment(a), mean * mean)
    second = rm_trial_second_moment(a)
    mean = permanent_ryser(a)
    if mean == 0:
        raise UndefinedRatioError("permanent is 0, critical ratio undefined")
    return Fraction(second, mean * mean)
