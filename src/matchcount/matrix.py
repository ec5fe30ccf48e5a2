"""Dense 0-1 matrices viewed as bipartite graphs.

A matrix with m rows and n columns is the biadjacency matrix of a bipartite
graph: entry (i, j) = 1 means row vertex i is joined to column vertex j.  Rows
are stored as integer bitmasks (bit j of ``row_masks[i]`` is entry (i, j)),
which keeps set operations on columns cheap for every algorithm downstream.

The text format used by :func:`read_matrix` / :func:`write_matrix` is a header
line ``"m n"`` followed by m lines of exactly n characters from ``{0, 1}``.
"""

from dataclasses import dataclass

from .errors import ParseError, ShapeError

# read_matrix refuses a longer header integer before parsing it, so a header
# never costs more than constant time.
MAX_HEADER_DIGITS = 18


@dataclass(frozen=True)
class ZeroOneMatrix:
    """Immutable 0-1 matrix with row-major bitmask storage.

    ``rows`` and ``cols`` may each be zero; a matrix with no rows has one
    (empty) matching, so downstream counts treat it as a valid input rather
    than an error.
    """

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative shape {self.rows}x{self.cols}")
        if len(self.row_masks) != self.rows:
            raise ShapeError(
                f"{self.rows} rows declared, {len(self.row_masks)} masks given"
            )
        limit = 1 << self.cols
        for i, mask in enumerate(self.row_masks):
            if not 0 <= mask < limit:
                raise ShapeError(f"row {i} mask {mask} out of range for {self.cols} columns")

    @classmethod
    def from_rows(cls, entries) -> "ZeroOneMatrix":
        """Build from a sequence of rows, each a sequence of 0/1 values."""
        entries = [list(row) for row in entries]
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        masks = []
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {cols}")
            mask = 0
            for j, value in enumerate(row):
                if value not in (0, 1):
                    raise ShapeError(f"entry ({i}, {j}) is {value!r}, expected 0 or 1")
                mask |= value << j
            masks.append(mask)
        return cls(rows, cols, tuple(masks))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ZeroOneMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "ZeroOneMatrix":
        return cls(rows, cols, ((1 << cols) - 1,) * rows)

    @classmethod
    def identity(cls, n: int) -> "ZeroOneMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return (self.row_masks[i] >> j) & 1

    def one_count(self) -> int:
        """Number of 1 entries (edges of the bipartite graph)."""
        return sum(mask.bit_count() for mask in self.row_masks)

    def __str__(self) -> str:
        return write_matrix(self)


def build_transformed(a: ZeroOneMatrix) -> ZeroOneMatrix:
    """Embed a square matrix A into the 2n x 2n block matrix [[A, I], [J, J]].

    The top rows extend A with an identity block, so row i can always fall
    back on its private column n + i; the bottom n rows are all ones.  The
    permanent of the result equals n! times the total matching count of A,
    which is what lets permanent machinery count matchings.
    """
    if not a.is_square:
        raise ShapeError(f"transformed form needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    full = (1 << (2 * n)) - 1
    top = tuple(a.row_masks[i] | (1 << (n + i)) for i in range(n))
    bottom = (full,) * n
    return ZeroOneMatrix(2 * n, 2 * n, top + bottom)


def read_matrix(text: str) -> ZeroOneMatrix:
    """Parse the text format: header ``"m n"``, then m rows of n chars in {0,1}.

    Raises ParseError with a 1-based line number on any defect.  A single
    trailing newline is accepted; other stray content is not.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input, expected an 'm n' header", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be two integers, got {lines[0]!r}", line=1)
    if max(map(len, header)) > MAX_HEADER_DIGITS:
        raise ParseError(f"header integers have at most {MAX_HEADER_DIGITS} digits", line=1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {lines[0]!r}", line=1) from None
    if rows < 0 or cols < 0:
        raise ParseError(f"negative dimension in header {lines[0]!r}", line=1)
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} row lines, found {len(lines) - 1}", line=len(lines))
    masks = []
    for i in range(rows):
        line = lines[1 + i]
        if len(line) != cols:
            raise ParseError(
                f"row has {len(line)} characters, expected {cols}", line=i + 2
            )
        mask = 0
        for j, ch in enumerate(line):
            if ch == "1":
                mask |= 1 << j
            elif ch != "0":
                raise ParseError(f"character {ch!r} at column {j + 1}, expected 0 or 1", line=i + 2)
        masks.append(mask)
    return ZeroOneMatrix(rows, cols, tuple(masks))


def write_matrix(a: ZeroOneMatrix) -> str:
    """Inverse of read_matrix; ends with a newline."""
    out = [f"{a.rows} {a.cols}"]
    for mask in a.row_masks:
        out.append("".join("1" if (mask >> j) & 1 else "0" for j in range(a.cols)))
    return "\n".join(out) + "\n"
