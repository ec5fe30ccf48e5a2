"""Reference values the benchmark checks the program's outputs against.

Forward dynamic programming over used-column sets, one row at a time: a
state is the set of columns already matched, and its weight is the number
(or weighted number) of ways to reach it.  This is a different mechanism
from the package's memoized recursion over available columns, and it shares
no code with the package.  Matrices are tuples of row bitmasks.
"""


def transpose(rows, cols, masks):
    """Row bitmasks of the transposed cols x rows matrix."""
    out = [0] * cols
    for i, mask in enumerate(masks):
        while mask:
            bit = mask & -mask
            out[bit.bit_length() - 1] |= 1 << i
            mask ^= bit
    return tuple(out)


def _sweep(masks, skip, weighted):
    """Final used-column states and weights after sweeping every row.

    skip: a row may stay unmatched.  weighted: each step multiplies the weight
    by the number of branches the one-pass estimators see at that state, so
    the final weights sum to the estimator's exact second moment.
    """
    states = {0: 1}
    for mask in masks:
        nxt = {}
        for used, weight in states.items():
            free = mask & ~used
            branches = free.bit_count() + (1 if skip else 0)
            step = weight * branches if weighted else weight
            if skip:
                nxt[used] = nxt.get(used, 0) + step
            while free:
                bit = free & -free
                key = used | bit
                nxt[key] = nxt.get(key, 0) + step
                free ^= bit
        states = nxt
    return states


def matching_profile(rows, cols, masks):
    """Matchings counted by size, k = 0 .. min(rows, cols)."""
    if cols > rows:
        rows, cols, masks = cols, rows, transpose(rows, cols, masks)
    profile = [0] * (cols + 1)
    for used, weight in _sweep(masks, skip=True, weighted=False).items():
        profile[used.bit_count()] += weight
    return profile


def permanent(masks):
    return sum(_sweep(masks, skip=False, weighted=False).values())


def amm_second_moment(masks):
    """E[X^2] of one skip-allowing trial: the sum over all coin paths of the
    product of branch counts, since each path has probability 1/prod(q)."""
    return sum(_sweep(masks, skip=True, weighted=True).values())


def rm_second_moment(masks):
    """E[Y^2] of one perfect-matching trial; dead paths contribute 0."""
    return sum(_sweep(masks, skip=False, weighted=True).values())
