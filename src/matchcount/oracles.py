"""Reference implementations, deliberately naive and independent.

These exist to cross-check the production algorithms, so they must not share
their mechanics.  One recursion enumerates matchings one by one as explicit
edge subsets (no memoization, no row recursion) and tallies them by size;
the count is the sum of that profile.  The permanent here is the
permutation-sum definition.  Costs are exponential; keep inputs small.
"""

from itertools import permutations

from .matrix import ZeroOneMatrix


def _edges(a: ZeroOneMatrix) -> list[tuple[int, int]]:
    return [(i, j) for i in range(a.rows) for j in range(a.cols) if a.entry(i, j)]


def brute_force_matching_count(a: ZeroOneMatrix) -> int:
    """Count matchings: the sum of the brute-force profile over all sizes."""
    return sum(brute_force_matching_profile(a))


def brute_force_matching_profile(a: ZeroOneMatrix) -> list[int]:
    """Count matchings by size; entry k is the number of k-edge matchings.

    Walks edge subsets in increasing index order, extending only with edges
    that conflict with nothing chosen so far.  Every matching (the empty one
    included) is constructed exactly once and tallied under its size.
    """
    edges = _edges(a)
    counts = [0] * (a.cols + 1)

    def extend(start: int, size: int, used_rows: int, used_cols: int):
        counts[size] += 1
        for t in range(start, len(edges)):
            r, c = edges[t]
            if not (used_rows >> r) & 1 and not (used_cols >> c) & 1:
                extend(t + 1, size + 1, used_rows | (1 << r), used_cols | (1 << c))

    extend(0, 0, 0, 0)
    return counts


def permanent_naive(a: ZeroOneMatrix) -> int:
    """Permanent straight from the definition: sum over all n! permutations."""
    if not a.is_square:
        raise ValueError("permanent needs a square matrix")
    n = a.rows
    total = 0
    for sigma in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= a.entry(i, sigma[i])
            if not prod:
                break
        total += prod
    return total
