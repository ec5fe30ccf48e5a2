"""Ensemble moments of matching counts, in exact rational arithmetic.

Two ensembles are analyzed.  For fair-coin Bernoulli matrices the mean and
second moment of the skip-allowing estimator follow a two-term recurrence

    f(m, l) = a(l) * f(m-1, l) + c(l) * f(m-1, l-1),    f(0, l) = 1

whose coefficient pair (a, c) is (1, l/2) for the mean of the matching count
and ((l+2)/2, (l^2+3l)/4) for the estimator's second moment.  The mean has a
direct sum; the second moment runs the recurrence scaled by 4^m, and its
closed form carries one table of complete homogeneous sums.  For n x n
matrices with exactly m ones, the mean of the matching count sums over one
fixed matching, and the second moment over pairs of matchings grouped by the
size of their union, which fixes the chance that both are present: a table
of such sums, one row per board side, makes it O(n^3) integer operations.

ratio-scan's square fair-coin columns (mean, second moment, majority tail)
are also carried across n, each row from the one before.  Each recurrence
is written once: the per-n second moment steps the carried columns over the
parallelogram that (m, n) needs, and the per-n tail is the carried tail's
first row.  Their independent routes are the direct mean sum, the second
moment's closed form and the tail's definition sum over math.comb.

Each closed form sums int numerators over one fixed denominator (2^m, 4^m,
4^n or C(n^2, m)) and builds one Fraction at the end; the independent routes
that check them keep their own arithmetic.  Decimal strings are rendering only.
"""

import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, comb, factorial, isqrt, perm
from typing import Callable, Iterator

from .ensembles import EnsembleSpec, enumerate_ensemble, matrix_probability
from .errors import CapacityError, DomainError
from .matrix import ZeroOneMatrix

# Significant digits of every decimal rendering.
DECIMAL_DIGITS = 12

# Largest epsilon the majority-tail bound accepts.
MAX_EPS = Fraction(1, 50)

# meets_power_threshold refuses a comparison whose integers would exceed
# this many bits (2^22 bits is 512 KiB per integer).
MAX_THRESHOLD_BITS = 1 << 22


def to_decimal(value) -> str:
    """Render an int or Fraction as a decimal string with DECIMAL_DIGITS significant digits."""
    frac = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return str(Decimal(frac.numerator) / Decimal(frac.denominator))


# ---------------------------------------------------------------------------
# Fair-coin Bernoulli ensemble, shape m x n with m <= n.


def bernoulli_mean_matchings(m: int, n: int) -> Fraction:
    """Mean matching count over m x n fair-coin matrices:
    sum over k of C(m, k) * P(n, k) / 2^k, summed over the denominator 2^m."""
    if not 0 <= m <= n:
        raise DomainError(f"needs 0 <= m <= n, got m={m}, n={n}")
    return Fraction(sum(comb(m, k) * perm(n, k) << (m - k) for k in range(m + 1)), 1 << m)


def _next_column(column: list[int], a: int, c: int) -> list[int]:
    """Column l of u(i, l) = a u(i-1, l) + c u(i-1, l-1), u(0, l) = 1, from
    column l-1: entries i = 0..k from entries i = 0..k-1, where a and c are
    the coefficients at l."""
    out = [1]
    for below in column:
        out.append(a * out[-1] + c * below)
    return out


def _second_moment_column(column: list[int], l: int) -> list[int]:
    """Column l of g(i, l) = 2(l+2) g(i-1, l) + (l^2+3l) g(i-1, l-1), the
    second-moment coefficients scaled by 4^i, from column l-1."""
    return _next_column(column, 2 * (l + 2), l * l + 3 * l)


def bernoulli_second_moment(m: int, n: int) -> Fraction:
    """Mean over m x n fair-coin matrices of the estimator's exact E[X^2]:
    g(m, n) / 4^m, with g the second-moment recurrence of carried_moments.

    g(m, n) needs g(i, l) only where l - i >= n - m, so the columns start
    at n - m + 1 from the one entry g(0, n - m) = 1, and column l holds
    i = 0..l - n + m.
    """
    if not 0 <= m <= n:
        raise DomainError(f"needs 0 <= m <= n, got m={m}, n={n}")
    g = [1]
    for l in range(n - m + 1, n + 1):
        g = _second_moment_column(g, l)
    return Fraction(g[m], 4**m)


def bernoulli_second_moment_closed_form(m: int, n: int) -> Fraction:
    """Same value as bernoulli_second_moment by the explicit summation:
    sum over k of P(n,k) * P(n+3,k) / 2^(m+k) * h_{m-k}(n+2, ..., n+2-k)
    where h_d is the complete homogeneous symmetric polynomial.

    One table h[d] carries h_d of the variables added so far: adding
    x_k = n+2-k updates degrees 1..m-k in place, h_d += x_k h_{d-1}, and
    h[m-k] is then read.  Degrees above m-k are never read again, so the
    sum costs O(m^2) operations over the one denominator 4^m.
    """
    if not 0 <= m <= n:
        raise DomainError(f"needs 0 <= m <= n, got m={m}, n={n}")
    h = [1] + [0] * m
    total = 0
    for k in range(m + 1):
        x = n + 2 - k
        for d in range(1, m - k + 1):
            h[d] += x * h[d - 1]
        total += perm(n, k) * perm(n + 3, k) * h[m - k] << (m - k)
    return Fraction(total, 4**m)


@dataclass(frozen=True)
class MeanBounds:
    """Peak-term sandwich for the square fair-coin mean matching count.

    The mean equals (n!)^2 / 2^n times a sum of n+1 positive terms b_k whose
    largest is b_kstar; peak = (n!)^2 / 2^n * b_kstar.  peak <= mean <=
    (n+1) * peak always.  mean <= n * peak fails at n = 1, so the record
    carries it per n; verify's peak-sandwich check asserts it for
    2 <= n <= 100.
    """

    n: int
    kstar: int
    peak: Fraction
    mean: Fraction
    upper: Fraction
    n_peak: Fraction
    peak_le_mean: bool
    mean_le_upper: bool
    mean_le_n_peak: bool


def mean_matchings_bounds(n: int) -> MeanBounds:
    """Sandwich the square fair-coin mean between its peak term and (n+1) times it.

    b_k = 2^k / ((n-k)! * (k!)^2); successive ratios 2(n-k+1)/k^2 show the
    peak sits at kstar = isqrt(2n+3) - 1, the largest k with k^2 <= 2(n-k+1).
    """
    if n < 0:
        raise DomainError(f"needs n >= 0, got {n}")
    kstar = isqrt(2 * n + 3) - 1
    b_star = Fraction(2**kstar, factorial(n - kstar) * factorial(kstar) ** 2)
    peak = Fraction(factorial(n) ** 2, 2**n) * b_star
    mean = bernoulli_mean_matchings(n, n)
    upper = (n + 1) * peak
    n_peak = n * peak
    return MeanBounds(
        n=n,
        kstar=kstar,
        peak=peak,
        mean=mean,
        upper=upper,
        n_peak=n_peak,
        peak_le_mean=peak <= mean,
        mean_le_upper=mean <= upper,
        mean_le_n_peak=mean <= n_peak,
    )


def second_moment_diag_lower_bound(n: int) -> Fraction:
    """Closed-form lower bound on the averaged second moment (diagnostic only):
    sum over k of (n!)^2 (n+3)! / 2^(2n) * 2^k (k+2)^k / ((k!)^2 (k+3)! (n-k)!),
    whose factorials cancel to C(n, k) P(n, n-k) P(n+3, n-k)."""
    if n < 0:
        raise DomainError(f"needs n >= 0, got {n}")
    numerators = (
        comb(n, k) * perm(n, n - k) * perm(n + 3, n - k) * (k + 2) ** k << k for k in range(n + 1)
    )
    return Fraction(sum(numerators), 4**n)


def meets_power_threshold(value: Fraction, n: int) -> bool:
    """Decide value >= n ** (sqrt(n)/2) exactly, no floating point.

    Squaring reduces the question to value^2 >= n^sqrt(n).  For square n the
    exponent is an integer and the comparison is direct.  Otherwise the
    continued-fraction convergents p/q of sqrt(n) fall alternately below and
    above it and bracket it ever more tightly; each turns one side into an
    integer power comparison (value^2)^q against n^p.  value^2 is rational and
    n^sqrt(n) is not, so some bracket separates them, but the q needed grows
    as value^2 nears the threshold: past MAX_THRESHOLD_BITS bits per compared
    integer the question is refused with CapacityError.
    """
    if n < 1:
        raise DomainError(f"needs n >= 1, got {n}")
    if value <= 0:
        return False
    squared = value * value
    root = isqrt(n)
    if root * root == n:
        return squared >= Fraction(n) ** root
    num, den = squared.numerator, squared.denominator
    # convergents p/q of sqrt(n) = [root; term, term, ...]; the terms come
    # from the integer recurrence for the continued fraction of a square root
    p_prev, q_prev, p, q = 1, 0, root, 1
    step, divisor, term = 0, 1, root
    below = True
    while True:
        bits = q * max(num.bit_length(), den.bit_length()) + p * n.bit_length()
        if bits > MAX_THRESHOLD_BITS:
            size = max(value.numerator.bit_length(), value.denominator.bit_length())
            raise CapacityError(
                f"deciding a {size}-bit value against n^(sqrt(n)/2) for n={n} needs "
                f"integers above {MAX_THRESHOLD_BITS} bits"
            )
        if below and num**q < n**p * den**q:  # value^2 < n^(p/q) < n^sqrt(n)
            return False
        if not below and num**q >= n**p * den**q:  # value^2 >= n^(p/q) > n^sqrt(n)
            return True
        step = divisor * term - step
        divisor = (n - step * step) // divisor
        term = (root + step) // divisor
        p_prev, q_prev, p, q = p, q, term * p + p_prev, term * q + q_prev
        below = not below


# ---------------------------------------------------------------------------
# The square fair-coin columns carried across n, as ratio-scan tabulates them.


def carried_moments(lo: int, hi: int) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(n, bernoulli_mean_matchings(n, n), bernoulli_second_moment(n, n)) for
    n = lo..hi, with each column carried from the one before.

    The recurrences, scaled to integers by h(i, l) = 2^i f(i, l) for the mean
    and g(i, l) = 4^i f(i, l) for the second moment, are
        h(i, l) = 2 h(i-1, l) + l h(i-1, l-1),
        g(i, l) = 2(l+2) g(i-1, l) + (l^2+3l) g(i-1, l-1),
    with h(0, l) = g(0, l) = 1.  Neither depends on n, so column l comes from
    column l-1 in O(l) integer operations, and row n is h(n, n) / 2^n and
    g(n, n) / 4^n.  The columns below lo cost O(lo^2) operations, as one
    per-n call does.
    """
    if lo < 1:
        raise DomainError(f"needs n >= 1, got {lo}")
    h = g = [1]
    for l in range(1, hi + 1):
        h = _next_column(h, 2, l)
        g = _second_moment_column(g, l)
        if l >= lo:
            yield l, Fraction(h[l], 1 << l), Fraction(g[l], 4**l)


class _LowestTerms:
    """p/q already in lowest terms, in the numbers.Rational protocol, so that
    Fraction(_LowestTerms(p, q)) takes p and q as they are, with no gcd."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_LowestTerms)


def _dyadic(numerator: int, exponent: int) -> Fraction:
    """numerator / 2^exponent for 0 < numerator < 2^exponent, reduced by the
    trailing zero bits of numerator, where Fraction(numerator, 2**exponent)
    would pay a gcd on exponent-bit integers, quadratic in their length."""
    zeros = (numerator & -numerator).bit_length() - 1
    return Fraction(_LowestTerms(numerator >> zeros, 1 << (exponent - zeros)))


def carried_majority_tails(lo: int, hi: int, eps) -> Iterator[Fraction]:
    """majority_tail(n, eps) for n = lo..hi, each carried from the one before.

    Keep N = n^2, the lower limit L = ceil((1/2 + eps) N), C = C(N, L) and
    T = sum over i >= L of C(N, i), the tail times 2^N.  One more cell is
        C(N, L-1) = C L / (N-L+1),  T <- 2T + C(N, L-1),  C <- C + C(N, L-1),
    and one more step of the lower limit is
        T <- T - C,  C <- C (N-L) / (L+1),
    each exact.  So a row costs O(n) steps on n^2-bit integers.  The row at
    lo sums its O(lo^2) terms from the top, C(N, i-1) = C(N, i) i / (N-i+1),
    whose last term is C(N, L), and reduces by its trailing zero bits only.
    """
    if lo < 1:
        raise DomainError(f"needs n >= 1, got {lo}")
    eps = Fraction(eps)
    if not 0 < eps <= MAX_EPS:
        raise DomainError(f"needs 0 < eps <= {MAX_EPS}, got {eps}")
    half = Fraction(1, 2) + eps
    cells = lo * lo
    lower = ceil(half * cells)
    term = total = 1
    for i in range(cells, lower, -1):
        term = term * i // (cells - i + 1)
        total += term
    for n in range(lo, hi + 1):
        if n > lo:
            while cells < n * n:
                below = term * lower // (cells - lower + 1)
                total = 2 * total + below
                term += below
                cells += 1
            target = ceil(half * cells)
            while lower < target:
                total -= term
                term = term * (cells - lower) // (lower + 1)
                lower += 1
        yield _dyadic(total, cells)


def majority_tail(n: int, eps: Fraction) -> Fraction:
    """Upper tail of the symmetric binomial on n^2 trials:
    sum of C(n^2, i) / 2^(n^2) for i from ceil((1/2 + eps) n^2) to n^2,
    the first row of carried_majority_tails.

    Needs n >= 1 and 0 < eps <= MAX_EPS.  The lower limit is rounded up to
    the next integer so the reported value never overstates the tail.
    """
    return next(carried_majority_tails(n, n, eps))


def ratio_scan_columns(
    lo: int, hi: int, eps
) -> Iterator[tuple[int, Fraction, Fraction, Fraction]]:
    """(n, mean, second moment, majority tail) of the square fair-coin
    ensemble for n = lo..hi: carried_moments and carried_majority_tails in step."""
    tails = carried_majority_tails(lo, hi, eps)
    for (n, mean, second), tail in zip(carried_moments(lo, hi), tails):
        yield n, mean, second, tail


# ---------------------------------------------------------------------------
# Uniform n x n matrices with exactly m ones.


def _require_edge_count(n: int, m: int):
    if n < 0:
        raise DomainError(f"needs n >= 0, got {n}")
    if not 0 <= m <= n * n:
        raise DomainError(f"needs 0 <= m <= n^2, got m={m}, n={n}")


def edge_count_mean_matchings(n: int, m: int) -> Fraction:
    """Mean matching count of a uniform n x n matrix with exactly m ones:
    sum over k of C(n, k)^2 k! times the probability C(n^2-k, m-k) / C(n^2, m)
    that a fixed k-matching lies inside the matrix."""
    _require_edge_count(n, m)
    return Fraction(
        sum(comb(n, k) ** 2 * factorial(k) * comb(n * n - k, m - k) for k in range(min(n, m) + 1)),
        comb(n * n, m),
    )


def edge_count_second_moment(n: int, m: int) -> Fraction:
    """Second moment of the matching count of a uniform n x n matrix with m ones.

    E[X^2] sums, over ordered pairs (M1, M2) of matchings of K_{n,n}, the
    probability that both lie inside the matrix, which depends only on the
    size t of their union: P[t] = C(n^2-t, m-t) out of C(n^2, m).  M1 has k
    edges (F[n][k] choices, where F[N][q] = C(N, q)^2 q! counts q-matchings
    of K_{N,N}), M2 shares j of them (C(k, j)) and adds s edges on the n-j
    rows and columns those j leave free, avoiding M1's k-j other edges; the
    union has k+s cells.  Inclusion-exclusion over the r avoided edges that
    M2 would hold counts those s-edge matchings as the sum over r of
    (-1)^r C(k-j, r) F[n-j-r][s-r].  Grouping by q = s-r, not by s, gives
        total = sum over k, j, r of F[n][k] C(k, j) (-1)^r C(k-j, r) G[n-j-r][k+r],
        G[N][a] = sum over q of F[N][q] P[a+q].
    Counting q-matchings by whether row N and column N are covered gives
    F[N][q] = F[N-1][q] + (2N-1) F[N-1][q-1] - (N-1)^2 F[N-2][q-2], so row N
    of G comes from rows N-1 and N-2 in O(n) steps, and the triple sum
    costs O(n^3) operations over the one denominator C(n^2, m).
    """
    _require_edge_count(n, m)
    cells = n * n
    # row N of G holds a = 0..2n+2-N: the triple sum reads a <= 2n-N, and
    # the recurrence reads rows N-1 and N-2 one and two entries further
    contain = [comb(cells - t, m - t) if t <= m else 0 for t in range(2 * n + 3)]
    grouped = [contain, [x + y for x, y in zip(contain, contain[1:])]]
    for big in range(2, n + 1):
        one, two = grouped[-1], grouped[-2]
        grouped.append([
            one[a] + (2 * big - 1) * one[a + 1] - (big - 1) ** 2 * two[a + 2]
            for a in range(len(two) - 2)
        ])
    total = 0
    for k in range(min(n, m) + 1):
        inner = 0
        for j in range(k + 1):
            free = k - j
            inner += comb(k, j) * sum(
                (-1) ** r * comb(free, r) * grouped[n - j - r][k + r] for r in range(free + 1)
            )
        total += comb(n, k) ** 2 * factorial(k) * inner
    return Fraction(total, comb(cells, m))


# ---------------------------------------------------------------------------
# Brute-force moment oracle over any enumerable ensemble.


def ensemble_moment_oracle(spec: EnsembleSpec, *statistics: Callable[[ZeroOneMatrix], int]):
    """Exact ensemble expectation of each statistic(a), by one enumeration.

    Weights each support matrix with its exact probability, computed once per
    matrix, so non-uniform Bernoulli ensembles are handled too.  One statistic
    gives one Fraction; several give a tuple in the order given, like
    operator.itemgetter.  Subject to the enumeration caps.
    """
    totals = [Fraction(0)] * len(statistics)
    for a in enumerate_ensemble(spec):
        p = matrix_probability(spec, a)
        totals = [total + p * statistic(a) for total, statistic in zip(totals, statistics)]
    return totals[0] if len(statistics) == 1 else tuple(totals)
