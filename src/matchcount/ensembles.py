"""Random-matrix ensembles: spec strings, sampling, exhaustive enumeration.

Three ensembles are supported, written as colon-separated spec strings:

    bernoulli:m:n:p   m x n, each entry independently 1 with probability p
    exactones:m:n     n x n with exactly m ones, uniform over placements
    edges:m:n         alias of exactones (the graph view: m edges on n+n vertices)

p is parsed exactly by parse_rational: "1/2", "0.3" and "1" all become
Fractions, never floats.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import CapacityError, DomainError, ParseError
from .matrix import ZeroOneMatrix
from .streams import RandomStream

# Exhaustive enumeration caps: 2^(m*n) matrices for Bernoulli, C(n^2, m) for
# the fixed-ones ensembles.  Past these the support does not fit in a test.
MAX_ENUM_CELLS = 20
MAX_ENUM_SUPPORT = 10**6
# Sampling draws (Bernoulli) or shuffles (fixed-ones) one value per cell, so
# a spec with more cells than this is refused before the first draw.
MAX_SAMPLE_CELLS = 10**6


def parse_rational(text: str) -> Fraction:
    """p/q or a plain decimal, exactly; ValueError otherwise.  An exponent is
    refused, as "1e-999999999" would build a power of ten of a billion digits."""
    if "e" in text.lower():
        raise ValueError(f"exponent in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class EnsembleKind(Enum):
    BERNOULLI = "bernoulli"
    EXACT_ONES = "exactones"
    EDGE_COUNT = "edges"


@dataclass(frozen=True)
class EnsembleSpec:
    """A parsed ensemble description.

    For BERNOULLI, (m, n) is the shape and p the entry probability.  For the
    fixed-ones kinds, m is the number of ones placed in an n x n matrix and
    p is None.
    """

    kind: EnsembleKind
    m: int
    n: int
    p: Fraction | None = None

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DomainError(f"negative ensemble parameter in {self}")
        if self.kind is EnsembleKind.BERNOULLI:
            if self.p is None or not 0 <= self.p <= 1:
                raise DomainError(f"bernoulli probability must be in [0, 1], got {self.p}")
        else:
            if self.p is not None:
                raise DomainError(f"{self.kind.value} takes no probability")
            if self.m > self.n * self.n:
                raise DomainError(
                    f"cannot place {self.m} ones in a {self.n}x{self.n} matrix"
                )

    @classmethod
    def parse(cls, text: str) -> "EnsembleSpec":
        parts = text.strip().split(":")
        kinds = {k.value: k for k in EnsembleKind}
        if not parts or parts[0] not in kinds:
            raise ParseError(
                f"unknown ensemble {text!r}, expected bernoulli:m:n:p, exactones:m:n or edges:m:n"
            )
        kind = kinds[parts[0]]
        want = 4 if kind is EnsembleKind.BERNOULLI else 3
        if len(parts) != want:
            raise ParseError(f"{parts[0]} spec needs {want - 1} parameters, got {len(parts) - 1}")
        try:
            m, n = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad integer in ensemble spec {text!r}") from None
        p = None
        if kind is EnsembleKind.BERNOULLI:
            try:
                p = parse_rational(parts[3])
            except ValueError:
                raise ParseError(f"bad probability {parts[3]!r} in ensemble spec") from None
        try:
            return cls(kind, m, n, p)
        except DomainError as exc:
            raise ParseError(str(exc)) from None

    def __str__(self) -> str:
        if self.kind is EnsembleKind.BERNOULLI:
            return f"bernoulli:{self.m}:{self.n}:{self.p}"
        return f"{self.kind.value}:{self.m}:{self.n}"

    @property
    def shape(self) -> tuple[int, int]:
        if self.kind is EnsembleKind.BERNOULLI:
            return self.m, self.n
        return self.n, self.n


def _place_ones(n: int, cells) -> ZeroOneMatrix:
    """The n x n matrix with a one in each given cell; cell c is row c // n,
    column c % n."""
    masks = [0] * n
    for c in cells:
        masks[c // n] |= 1 << (c % n)
    return ZeroOneMatrix(n, n, tuple(masks))


def sample_matrix(spec: EnsembleSpec, stream: RandomStream) -> ZeroOneMatrix:
    """Draw one matrix from the ensemble using the given stream.

    Bernoulli entries are decided in row-major order by exact comparison
    randbelow(q) < p_num (no floating point).  The fixed-ones kinds place m
    ones with a partial Fisher-Yates pass over the n^2 cell indices, which is
    uniform over all C(n^2, m) placements.  Specs with more than
    MAX_SAMPLE_CELLS cells raise CapacityError before any draw.
    """
    rows, cols = spec.shape
    if rows * cols > MAX_SAMPLE_CELLS:
        raise CapacityError(
            f"sampling {spec} needs {rows}x{cols} = {rows * cols} cells, "
            f"cap is {MAX_SAMPLE_CELLS}"
        )
    if spec.kind is EnsembleKind.BERNOULLI:
        num, den = spec.p.numerator, spec.p.denominator
        masks = []
        for _ in range(spec.m):
            mask = 0
            for j in range(spec.n):
                if den == 1:
                    bit = num  # p is exactly 0 or 1
                else:
                    bit = 1 if stream.randbelow(den) < num else 0
                mask |= bit << j
            masks.append(mask)
        return ZeroOneMatrix(spec.m, spec.n, tuple(masks))

    n, m = spec.n, spec.m
    cells = list(range(n * n))
    for i in range(m):
        j = i + stream.randbelow(n * n - i)
        cells[i], cells[j] = cells[j], cells[i]
    return _place_ones(n, cells[:m])


def support_size(spec: EnsembleSpec) -> int:
    """Number of matrices the ensemble can produce."""
    if spec.kind is EnsembleKind.BERNOULLI:
        if spec.p in (0, 1):
            return 1
        return 1 << (spec.m * spec.n)
    return comb(spec.n * spec.n, spec.m)


def enumerate_ensemble(spec: EnsembleSpec):
    """Yield every matrix in the ensemble's support, in a fixed order.

    Bernoulli supports are limited to m*n <= MAX_ENUM_CELLS cells and the
    fixed-ones kinds to C(n^2, m) <= MAX_ENUM_SUPPORT matrices; CapacityError
    past that.  Degenerate Bernoulli (p = 0 or 1) has a one-matrix support.
    """
    if spec.kind is EnsembleKind.BERNOULLI:
        if spec.p == 0:
            yield ZeroOneMatrix.zeros(spec.m, spec.n)
            return
        if spec.p == 1:
            yield ZeroOneMatrix.ones(spec.m, spec.n)
            return
        cells = spec.m * spec.n
        if cells > MAX_ENUM_CELLS:
            raise CapacityError(
                f"bernoulli support 2^{cells} exceeds enumeration cap 2^{MAX_ENUM_CELLS}"
            )
        row_full = (1 << spec.n) - 1
        for code in range(1 << cells):
            masks = tuple((code >> (i * spec.n)) & row_full for i in range(spec.m))
            yield ZeroOneMatrix(spec.m, spec.n, masks)
        return

    size = support_size(spec)
    if size > MAX_ENUM_SUPPORT:
        raise CapacityError(
            f"support C({spec.n ** 2}, {spec.m}) = {size} exceeds cap {MAX_ENUM_SUPPORT}"
        )
    n = spec.n
    for chosen in itertools.combinations(range(n * n), spec.m):
        yield _place_ones(n, chosen)


def matrix_probability(spec: EnsembleSpec, a: ZeroOneMatrix) -> Fraction:
    """Exact probability the ensemble assigns to a given support matrix."""
    if a.rows != spec.shape[0] or a.cols != spec.shape[1]:
        raise DomainError(f"matrix shape {a.rows}x{a.cols} outside ensemble {spec}")
    if spec.kind is EnsembleKind.BERNOULLI:
        ones = a.one_count()
        cells = spec.m * spec.n
        return spec.p**ones * (1 - spec.p) ** (cells - ones)
    if a.one_count() != spec.m:
        return Fraction(0)
    return Fraction(1, support_size(spec))
