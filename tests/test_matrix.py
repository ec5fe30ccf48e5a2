"""Matrix construction, bit access, the block transform, and text round-trips."""

import pytest

from matchcount import (
    ParseError,
    ShapeError,
    ZeroOneMatrix,
    build_transformed,
    read_matrix,
    write_matrix,
)
from matchcount.ensembles import EnsembleKind, EnsembleSpec, sample_matrix
from matchcount.streams import RandomStream


def test_from_rows_and_entry():
    a = ZeroOneMatrix.from_rows([[0, 1, 1], [1, 0, 0]])
    assert (a.rows, a.cols) == (2, 3)
    assert a.row_masks == (0b110, 0b001)
    assert [[a.entry(i, j) for j in range(3)] for i in range(2)] == [[0, 1, 1], [1, 0, 0]]
    assert a.one_count() == 3


def test_constructors():
    assert ZeroOneMatrix.zeros(2, 3).row_masks == (0, 0)
    assert ZeroOneMatrix.ones(2, 3).row_masks == (7, 7)
    assert ZeroOneMatrix.identity(3).row_masks == (1, 2, 4)
    assert ZeroOneMatrix.zeros(0, 4).rows == 0
    assert ZeroOneMatrix.zeros(4, 0).row_masks == (0, 0, 0, 0)


def test_construction_errors():
    with pytest.raises(ShapeError):
        ZeroOneMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(ShapeError):
        ZeroOneMatrix.from_rows([[0, 2]])
    with pytest.raises(ShapeError):
        ZeroOneMatrix(2, 2, (0,))
    with pytest.raises(ShapeError):
        ZeroOneMatrix(1, 2, (4,))  # mask needs a third column
    with pytest.raises(ShapeError):
        ZeroOneMatrix(-1, 2, ())
    with pytest.raises(IndexError):
        ZeroOneMatrix.identity(2).entry(0, 2)


def test_matrix_equality_and_hash():
    a = ZeroOneMatrix.from_rows([[1, 0], [0, 1]])
    assert a == ZeroOneMatrix.identity(2)
    assert hash(a) == hash(ZeroOneMatrix.identity(2))
    assert a != ZeroOneMatrix.ones(2, 2)


def test_build_transformed_blocks():
    b = build_transformed(ZeroOneMatrix.identity(2))
    # top rows: A extended with private identity columns; bottom: all ones
    assert b.row_masks == (0b0101, 0b1010, 0b1111, 0b1111)
    assert (b.rows, b.cols) == (4, 4)
    c = build_transformed(ZeroOneMatrix.ones(2, 2))
    assert c.row_masks == (0b0111, 0b1011, 0b1111, 0b1111)
    with pytest.raises(ShapeError):
        build_transformed(ZeroOneMatrix.ones(2, 3))


def test_write_matrix_exact_text():
    a = ZeroOneMatrix.from_rows([[1, 0, 1], [0, 0, 1]])
    assert write_matrix(a) == "2 3\n101\n001\n"
    assert write_matrix(ZeroOneMatrix.zeros(0, 0)) == "0 0\n"


def test_read_matrix_basic():
    assert read_matrix("2 3\n101\n001\n") == ZeroOneMatrix.from_rows([[1, 0, 1], [0, 0, 1]])
    # final newline is optional
    assert read_matrix("1 1\n1") == ZeroOneMatrix.ones(1, 1)
    assert read_matrix("0 3\n") == ZeroOneMatrix.zeros(0, 3)
    assert read_matrix("2 0\n\n\n") == ZeroOneMatrix.zeros(2, 0)


def test_read_matrix_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        read_matrix("")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        read_matrix("2\n11\n11\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        read_matrix("a b\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        read_matrix("2 2\n11\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        read_matrix("2 2\n11\n111\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        read_matrix("2 2\n11\n1x\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        read_matrix("2 2\n11\n11\nextra\n")
    with pytest.raises(ParseError):
        read_matrix("-1 2\n")


def test_roundtrip_random_matrices():
    from fractions import Fraction

    for t in range(300):
        shape = RandomStream(31, t)
        m = shape.randbelow(6)
        n = shape.randbelow(6)
        spec = EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 3))
        a = sample_matrix(spec, RandomStream(32, t))
        assert read_matrix(write_matrix(a)) == a
