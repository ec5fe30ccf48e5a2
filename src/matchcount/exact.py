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

A matching of a bipartite graph is an independent choice of one matching in
each connected component, and a trial's branch counts at a row depend only
on earlier rows of that row's component.  So every quantity is swept once
per component (rows that share a column, directly or through other rows,
kept in input order) and the results combine: counts and both second moments
multiply, and profiles convolve.  A zero row is in no component; it leaves
the count and the amm moment unchanged (q = 1) and makes the rm moment 0.

A component's profile is its last layer bucketed by the number of used
columns.  A layer is dropped once the next one is built, so at most two
layers of at most 2^width states each are alive and the row count only
costs time.  Count and profile are invariant under transpose and sweep each
component on its narrower side, so width is min(rows, cols) of the
component; the second moments describe estimators that walk the rows in
input order, so they never transpose and width is the component's column
count.  All arithmetic is Python int, so counts never overflow or round.

One routine, _sweep, walks every layer, and _layout picks per component
how a layer is held: a dict keyed by the high columns, used >> c, whose
value holds the weights of the 2^c states that share them in b-bit lanes
of one Python int, so that one big-int operation moves every lane at once.
At c = 0 there are no low columns and the dict maps each reachable state
to its weight.  With the columns renumbered 0 .. width - 1 and Z_j all ones
on the lanes whose index lacks bit j, a row costs, on the int L at key k,

    take high j     L is added at key k | bit j, as a single weight is
    take low j      (L & Z_j) << (b << j)
    skip            L
    amm weight q    q * L = (f + 1) * L + sum over low j in the row of (L & Z_j)

with f the row's free high columns.  At c > 0 the total is the layer's sum
mod 2^b - 1.  Every lane and the total are below 2^(b-1) when b, a multiple of
8, is above the bit length of a bound on the total: the number of
matchings, at most prod(|line| + 1) over the rows or over the columns, and
for the amm moment that times prod(|row| + 1).  The profile folds the lanes
onto their popcount in c more operations (see _popcount_sums).  2^c * b is
at most CHUNK_BITS: ints of 8 KiB spared the page faults that made steps
on one multi-megabyte layer slow.

A component takes c > 0 when the sweep may skip, it is wider than
DICT_MAX_WIDTH and b is at most MAX_LANE_BITS, all known before any work
starts; otherwise it takes c = 0.  The rm sweep cannot skip, so most of its
states die and a sparse dict of single states beats lanes for every state;
a lane must also keep its weight when its row takes a column, which only a
skip sweep does.  A component of width 4 or less costs less as single
states than its lane masks would, and small and sparse inputs consist
mostly of such components.  The amm bound of a tall component grows with
its rows, and lanes that wide cost more than single weights that start at
1.  Two packed layers hold 2^width lanes of b bits, at most 4 GiB at width
24, while the dict holds about 100 bytes plus a weight per reachable state.
On one core of a 2-vCPU Xeon, a fair-coin 18x18 took 0.1-0.2 s for its
count and profile and 0.3-0.4 s for its amm moment at c > 0, against 4-6 s
each at c = 0; the amm moment of the 24x24 tridiagonal band took 0.6-0.8 s
and 435 MB at c > 0, against 36-42 s and 3.78 GB at c = 0.

The permanent is not swept: permanent_ryser evaluates Ryser's formula, so
the permanent route checks the sweep with no mechanics in common.  It sums
over row subsets and takes each class of m identical rows as "take s of
them" with weight C(m, s), so with k rows that occur once it visits
2^k * prod (m + 1) terms; on the route's 2n x 2n matrix that is 2^n (n + 1)
rather than 2^(2n).
"""

from fractions import Fraction
from math import comb, factorial, prod

from .errors import (
    CapacityError,
    EquivalenceViolationError,
    ShapeError,
    UndefinedRatioError,
)
from .estimators import Method
from .matrix import ZeroOneMatrix, build_transformed

# A component's sweep holds up to 2^width states per layer; at width 24 a
# fair-coin 24x24 took 435 MB (count) to 818 MB (amm moment) packed.
MAX_SWEEP_WIDTH = 24
# Components at most this wide keep the dict layer even when they could be
# packed: their dict sweep costs less than building lane masks.
DICT_MAX_WIDTH = 4
# Bits of one int of a packed layer.  Every big-int step builds a new int; on
# a fair-coin 18x18, steps on the whole 2 MiB layer spent most of their time
# in page faults, and 8 KiB ints (b = 64, c = 10) ran the count 4.8x and the
# amm moment 2.7x faster.
CHUNK_BITS = 1 << 16
# Lanes sit b bits apart from the first row on, while dict values grow row by
# row.  The amm bound grows with the row count, and on tall components the
# dict caught up with packed near b = 1000 at width 5 and b = 1500 at width 8.
MAX_LANE_BITS = 1024
# Ryser's formula visits up to 2^n terms, all of them when no row repeats.
MAX_RYSER_COLS = 20
# The permanent route builds a 2n x 2n matrix for Ryser.
MAX_TRANSFORM_SIDE = MAX_RYSER_COLS // 2

MatchingProfile = list[int]


def _lane_bits(rows, weighted: bool) -> int:
    """Lane width b of a packed skip sweep over rows: the least multiple of 8
    strictly above the bit length of a bound on its total.

    A skip sweep's paths are the matchings, at most prod(|line| + 1) over
    the rows and over the columns alike; an amm path weighs at most
    prod(|row| + 1).  Every lane, and their sum, is at most the total, so
    below 2^(b-1) < 2^b - 1: no lane overflows, and the total is the sum of
    the layer's ints mod 2^b - 1.
    """
    weight = prod(row.bit_count() + 1 for row in rows)
    bound = min(weight, prod(col.bit_count() + 1 for col in _transpose(rows)))
    if weighted:
        bound *= weight
    return bound.bit_length() // 8 * 8 + 8


def _layout(width: int, rows, skip: bool, weighted: bool) -> tuple[int, int]:
    """(b, c) of this component's sweep: lanes of b bits, 2^c of them per
    int, or (0, 0) for the dict layer.  Packing needs the skip branch, a
    component wider than DICT_MAX_WIDTH and b <= MAX_LANE_BITS; c is then
    the most low columns whose 2^c lanes fit CHUNK_BITS, at least 6 as
    b <= 1024.  Layer size never picks the dict: a dense width-24 layer is
    smaller packed (435 MB for the tridiagonal band's amm moment) than on
    the dict (3.78 GB)."""
    if not skip or width <= DICT_MAX_WIDTH:
        return 0, 0
    b = _lane_bits(rows, weighted)
    if b > MAX_LANE_BITS:
        return 0, 0
    return b, min(width, (CHUNK_BITS // b).bit_length() - 1)


def _lanes_without(j: int, c: int, b: int) -> int:
    """All ones on the b-bit lanes 0 .. 2^c - 1 whose index lacks bit j.

    One block of 2^j lanes, doubled by shifted ORs: long division, the
    other way to build it, is quadratic in CPython.
    """
    mask = (1 << (b << j)) - 1
    step, end = b << (j + 1), b << c
    while step < end:
        mask |= mask << step
        step <<= 1
    return mask


def _sweep(rows, skip: bool, weighted: bool, b: int, c: int) -> dict[int, int]:
    """Last layer {used >> c: lanes} of the forward row sweep, where bits
    low * b .. low * b + b - 1 of lanes hold the weight sum of the state
    whose low c columns are `low`; at c = 0 each value is one state's weight.

    The high columns move whole ints as single states move.  For a low
    column j, with Z_j the lanes whose index lacks bit j, taking j is
    (L & Z_j) << (b << j) and skipping keeps L.  The weight q =
    |row & ~used| + skip is q * L = (f + skip) * L + sum over low j in the
    row of L & Z_j, with f the row's free high columns.  With c > 0 the
    sweep may skip (see _layout) and the columns are first renumbered
    0 .. width - 1 (transposing twice does that and keeps the rows in
    order); zero rows drop out, which changes nothing in a skip sweep.
    """
    if c:
        without = [_lanes_without(j, c, b) for j in range(c)]
        rows = _transpose(_transpose(rows))
    low_mask = (1 << c) - 1
    layer = {0: 1}
    for row in rows:
        high, low = row >> c, row & low_mask
        takes = low and [(without[j], b << j) for j in range(c) if low >> j & 1]
        nxt: dict[int, int] = {}
        get = nxt.get
        for used, lanes in layer.items():
            free = high & ~used
            if takes:
                if weighted:
                    lanes = lanes * (free.bit_count() + skip) + sum(lanes & z for z, _ in takes)
                moved = lanes
                for z, shift in takes:
                    moved += (lanes & z) << shift
                nxt[used] = get(used, 0) + moved
            else:
                if weighted:
                    lanes *= free.bit_count() + skip
                if skip:
                    nxt[used] = get(used, 0) + lanes
            while free:
                bit = free & -free
                key = used | bit
                nxt[key] = get(key, 0) + lanes
                free ^= bit
        layer = nxt
    return layer


def _popcount_sums(layer: dict[int, int], width: int, b: int, c: int) -> list[int]:
    """Sums of a layer's lanes, bucketed by the popcount of their state.

    The ints are first summed per popcount of their high columns, which at
    c = 0 are the whole state, so those sums are the buckets.  In such a
    sum, lanes 2i and 2i + 1 already read as L_2i + y * L_2i+1 with y = 2^b.
    Folding low column t = 1 .. c - 1 moves the upper half of every block of
    2^(t+1) lanes down by (2^t - 1) * b bits onto the lower half, which
    multiplies it by y; after the last fold the int is the sum of
    L_low * y^popcount(low), so b-bit digit k is bucket k.  No digit carries,
    as each is a sum of lanes, at most the total.
    """
    grouped = [0] * (width - c + 1)
    for high, lanes in layer.items():
        grouped[high.bit_count()] += lanes
    if not c:
        return grouped
    without = [_lanes_without(t, c, b) for t in range(c)]
    digit = (1 << b) - 1
    sums = [0] * (width + 1)
    for base, lanes in enumerate(grouped):
        for t in range(1, c):
            even = lanes & without[t]
            lanes = even + ((lanes - even) >> (((1 << t) - 1) * b))
        for k in range(c + 1):
            sums[base + k] += lanes >> (k * b) & digit
    return sums


def _components(masks) -> list[tuple[int, list[int]]]:
    """(columns, rows) of each connected component of the nonzero rows.

    Two rows are in one component when they share a column, directly or
    through other rows.  Zero rows belong to no component and are dropped;
    each component keeps its rows in input order.
    """
    spans: list[int] = []
    for row in masks:
        if row:
            apart = []
            for cols in spans:
                if cols & row:
                    row |= cols
                else:
                    apart.append(cols)
            apart.append(row)
            spans = apart
    if len(spans) < 2:
        return [(cols, list(filter(None, masks))) for cols in spans]
    groups: dict[int, list[int]] = {cols: [] for cols in spans}
    for row in masks:
        if row:
            for cols, rows in groups.items():
                if cols & row:
                    rows.append(row)
                    break
    return list(groups.items())


def _transpose(rows: list[int]) -> list[int]:
    """Column masks over row positions, in column order, zero columns left out."""
    cols: dict[int, int] = {}
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low] = cols.get(low, 0) | bit
            row ^= low
    return [cols[low] for low in sorted(cols)]


def _split(a: ZeroOneMatrix, what: str, narrow: bool) -> list[tuple[int, list[int]]]:
    """(state width, row masks) of each component, checked against the cap.

    With narrow set, a component with more columns than rows is transposed,
    so its sweep state has min(rows, cols) bits; otherwise the state has one
    bit per column of the component.
    """
    parts = []
    widest = 0
    for cols, rows in _components(a.row_masks):
        width = cols.bit_count()
        if narrow and width > len(rows):
            width, rows = len(rows), _transpose(rows)
        if width > widest:
            widest = width
        parts.append((width, rows))
    if widest > MAX_SWEEP_WIDTH:
        side = "rows or columns (narrower side)" if narrow else "columns"
        raise CapacityError(
            f"{what} supports connected components of at most {MAX_SWEEP_WIDTH} "
            f"{side}, got one of {widest}"
        )
    return parts


def _convolve(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _product(a: ZeroOneMatrix, what: str, skip: bool, weighted: bool) -> int:
    """Product over a's components of their last layer's sum; only the
    unweighted count is transpose-invariant, so only it sweeps narrow."""
    total = 1
    for width, masks in _split(a, what, not weighted):
        b, c = _layout(width, masks, skip, weighted)
        part = sum(_sweep(masks, skip, weighted, b, c).values())
        total *= part % ((1 << b) - 1) if c else part
    return total


def count_all_matchings(a: ZeroOneMatrix) -> int:
    """Total number of matchings of a, the empty matching included.

    Always at least 1: the product of the component counts.  Requires every
    connected component to have at most MAX_SWEEP_WIDTH rows or columns.
    """
    return _product(a, "count_all_matchings", True, False)


def matching_profile(a: ZeroOneMatrix) -> MatchingProfile:
    """Counts of k-edge matchings for k = 0 .. cols.

    Entry 0 is always 1 (the empty matching) and the entries sum to
    count_all_matchings(a).  A state of a component's sweep that has used k
    columns ends k-edge matchings, so each component's profile buckets its
    last layer, and the profile of a is their convolution.
    """
    profile = [1]
    for width, masks in _split(a, "matching_profile", True):
        b, c = _layout(width, masks, True, False)
        part = _popcount_sums(_sweep(masks, True, False, b, c), width, b, c)
        profile = _convolve(profile, part)
    return profile + [0] * (a.cols + 1 - len(profile))


def _cross(lines, n: int) -> list[int]:
    """The n crossing lines of n lines: bit i of crossing line j is bit j of line i.

    Ryser's own transpose, zero lines kept.  The sweep transposes with
    _transpose; were the two to share it, one fault in it could bend the
    sweep and the permanent route alike, and the cross-check would pass.
    """
    out = [0] * n
    for i, line in enumerate(lines):
        bit = 1 << i
        while line:
            low = line & -line
            out[low.bit_length() - 1] |= bit
            line ^= low
    return out


def _classes(rows) -> tuple[int, list[int], list[tuple[int, int]]]:
    """(k, ordered, choices) of the grouped Ryser sum over the rows.

    The rows are renumbered once: the k rows that occur once take bits
    0..k-1, and each class of m identical rows follows.  choices holds one
    (copies, weight) per way of taking s = 0..m rows from every class: the
    class's first s, weighted C(m, s).
    """
    seen: dict[int, int] = {}
    for row in rows:
        seen[row] = seen.get(row, 0) + 1
    ordered = [row for row in rows if seen[row] == 1]
    k = len(ordered)
    choices = [(0, 1)]
    for row, m in seen.items():
        if m > 1:
            first = len(ordered)
            ordered += [row] * m
            choices = [
                (copies | ((1 << s) - 1) << first, weight * comb(m, s))
                for copies, weight in choices
                for s in range(m + 1)
            ]
    return k, ordered, choices


def permanent_ryser(a: ZeroOneMatrix) -> int:
    """Permanent by Ryser's inclusion-exclusion, summed over classes of identical rows.

    per(a) = per(a^T) = sum over row subsets S of (-1)^(n - |S|) *
    prod_j |col_j & S|.  Identical rows are interchangeable: a term depends
    only on how many copies s of a class of m identical rows S holds, so S
    takes the class's first s copies, with weight C(m, s).  With k rows
    that occur once, the sum visits 2^k * prod (m + 1) terms over the
    classes; with no repeated row that is 2^n.  The doubled matrix
    [[A, I], [J, J]] of the permanent route has n identical all-ones rows,
    so it costs 2^n (n + 1) terms, not 2^(2n).  A zero line makes the
    permanent 0.  Square input, n <= MAX_RYSER_COLS.
    """
    if not a.is_square:
        raise ShapeError(f"permanent needs a square matrix, got {a.rows}x{a.cols}")
    if a.cols > MAX_RYSER_COLS:
        raise CapacityError(
            f"permanent_ryser supports at most {MAX_RYSER_COLS} columns, got {a.cols}"
        )
    n = a.rows
    if n == 0:
        return 1
    k, rows, choices = _classes(a.row_masks)
    cols = _cross(rows, n)
    if 0 in rows or 0 in cols:
        return 0
    # sparse columns first, so that a zero factor ends a term sooner
    cols.sort(key=int.bit_count)
    total = 0
    for copies, weight in choices:
        # copies has no bit below k, so low | copies is copies + low
        for subset in range(copies, copies + (1 << k)):
            prod = weight
            for col in cols:
                prod *= (col & subset).bit_count()
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
    A permanent that n! does not divide raises EquivalenceViolationError.
    """
    if not a.is_square:
        raise ShapeError(f"permanent route needs a square matrix, got {a.rows}x{a.cols}")
    if a.rows > MAX_TRANSFORM_SIDE:
        raise CapacityError(
            f"permanent route supports n <= {MAX_TRANSFORM_SIDE}, got {a.rows}"
        )
    per = permanent_ryser(build_transformed(a))
    count, rest = divmod(per, factorial(a.rows))
    if rest:
        raise EquivalenceViolationError(f"permanent {per} not divisible by {a.rows}!")
    return count


def amm_trial_second_moment(a: ZeroOneMatrix) -> int:
    """Exact E[X^2] for the skip-allowing estimator on a fixed matrix.

    At row i with used columns `used` a trial has q = |row_i & ~used| + 1
    equally likely branches (the skip branch plus one per free 1-column) and
    multiplies its output by q.  A path is taken with probability 1/prod(q)
    and outputs prod(q), so E[X^2] = sum over paths of prod(q): the weighted
    sweep with skipping.  The result is an exact integer: the product of the
    component moments, as a zero row has q = 1 and a row's q depends only on
    earlier rows of its own component.
    """
    return _product(a, "amm_trial_second_moment", True, True)


def rm_trial_second_moment(a: ZeroOneMatrix) -> int:
    """Exact E[Y^2] for the perfect-matching estimator on a square matrix.

    Same sweep as the skip-allowing moment minus the skip branch; a row with
    no free 1-column kills the trial, contributing 0, so a zero row makes
    the moment 0 and otherwise it is the product of the component moments.
    """
    if not a.is_square:
        raise ShapeError(f"rm trials need a square matrix, got {a.rows}x{a.cols}")
    if 0 in a.row_masks:
        return 0
    return _product(a, "rm_trial_second_moment", False, True)


# Each estimator's exact trial mean and trial second moment, by method: amm
# is unbiased for the total matching count, rm for the permanent.
TRIAL_MEAN = {Method.AMM: count_all_matchings, Method.RM: permanent_ryser}
TRIAL_SECOND_MOMENT = {Method.AMM: amm_trial_second_moment, Method.RM: rm_trial_second_moment}


def critical_ratio(a: ZeroOneMatrix, method: Method) -> Fraction:
    """E[X^2] / E[X]^2 for one trial of the chosen estimator on a.

    The amm mean, the total matching count, is never zero; a zero rm mean
    (a zero permanent) leaves the ratio undefined.
    """
    mean = TRIAL_MEAN[method](a)
    if mean == 0:
        raise UndefinedRatioError("permanent is 0, critical ratio undefined")
    return Fraction(TRIAL_SECOND_MOMENT[method](a), mean * mean)
