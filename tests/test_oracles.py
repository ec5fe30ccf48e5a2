"""The brute-force oracles against closed forms, not against the row sweep."""

from math import comb, factorial

from matchcount.matrix import ZeroOneMatrix
from matchcount.oracles import brute_force_matching_count, brute_force_matching_profile


def test_profile_of_complete_bipartite_graph():
    """K_{m,n} has C(m, k) C(n, k) k! matchings of size k."""
    for m in range(5):
        for n in range(5):
            expect = [comb(m, k) * comb(n, k) * factorial(k) for k in range(n + 1)]
            assert brute_force_matching_profile(ZeroOneMatrix.ones(m, n)) == expect, (m, n)


def test_count_of_perfect_matching_graph():
    """n disjoint edges: every one of the 2^n edge subsets is a matching."""
    for n in range(11):
        assert brute_force_matching_count(ZeroOneMatrix.identity(n)) == 2**n, n
