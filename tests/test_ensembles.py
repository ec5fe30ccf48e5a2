"""Ensemble spec parsing, sampling, and exhaustive enumeration."""

import math
from fractions import Fraction

import pytest

from matchcount import ParseError
from matchcount.ensembles import (
    MAX_SAMPLE_CELLS,
    EnsembleKind,
    EnsembleSpec,
    enumerate_ensemble,
    matrix_probability,
    sample_matrix,
    support_size,
)
from matchcount.errors import CapacityError, DomainError
from matchcount.matrix import ZeroOneMatrix
from matchcount.cli import SAMPLING_STREAM
from matchcount.streams import BLOCK_BITS, RandomStream


def test_parse_bernoulli():
    spec = EnsembleSpec.parse("bernoulli:3:4:1/2")
    assert spec.kind is EnsembleKind.BERNOULLI
    assert (spec.m, spec.n) == (3, 4)
    assert spec.p == Fraction(1, 2)
    assert spec.shape == (3, 4)
    assert str(spec) == "bernoulli:3:4:1/2"


def test_parse_probability_forms():
    assert EnsembleSpec.parse("bernoulli:2:2:0.3").p == Fraction(3, 10)
    assert EnsembleSpec.parse("bernoulli:2:2:1").p == Fraction(1)
    assert EnsembleSpec.parse("bernoulli:2:2:0").p == Fraction(0)


def test_parse_exactones_and_edges_alias():
    spec = EnsembleSpec.parse("exactones:7:5")
    assert spec.kind is EnsembleKind.EXACT_ONES
    assert (spec.m, spec.n) == (7, 5)
    assert spec.shape == (5, 5)
    assert str(spec) == "exactones:7:5"
    alias = EnsembleSpec.parse("edges:7:5")
    assert alias.kind is EnsembleKind.EDGE_COUNT
    assert alias.shape == (5, 5)
    assert str(alias) == "edges:7:5"


def test_parse_rejects_garbage():
    bad = [
        "",
        "bernoulli",
        "bernoulli:3:4",            # p missing
        "bernoulli:3:4:2",          # p > 1
        "bernoulli:3:4:-1/2",
        "bernoulli:3:4:1/2:9",      # extra part
        "bernoulli:a:b:1/2",
        "bernoulli:3:4:1/0",
        "exactones:5:2",            # more ones than cells
        "exactones:-1:2",
        "exactones:2",
        "edges:1:2:3",
        "uniform:2:2:1/2",          # unknown kind
    ]
    for text in bad:
        with pytest.raises(ParseError):
            EnsembleSpec.parse(text)


def test_parse_roundtrip():
    for text in ["bernoulli:1:1:0", "bernoulli:2:3:3/7", "exactones:0:4",
                 "edges:6:3", "exactones:9:3"]:
        assert str(EnsembleSpec.parse(text)) == text


def test_sample_respects_shape_and_degenerate_p():
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 3, 5, Fraction(0))
    assert sample_matrix(spec, RandomStream(0, 0)) == ZeroOneMatrix.zeros(3, 5)
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 3, 5, Fraction(1))
    assert sample_matrix(spec, RandomStream(0, 0)) == ZeroOneMatrix.ones(3, 5)


def test_sample_exactones_counts():
    spec = EnsembleSpec(EnsembleKind.EXACT_ONES, 9, 4)
    for t in range(60):
        a = sample_matrix(spec, RandomStream(7, t))
        assert (a.rows, a.cols) == (4, 4)
        assert a.one_count() == 9


def test_sample_exactones_uniform():
    """Empirical distribution over the 6 two-one placements stays near uniform."""
    spec = EnsembleSpec(EnsembleKind.EXACT_ONES, 2, 2)
    counts = {}
    draws = 6000
    for t in range(draws):
        a = sample_matrix(spec, RandomStream(13, t))
        counts[a] = counts.get(a, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        # mean 1000, sigma ~ 29; allow 6 sigma
        assert abs(c - 1000) < 175


def test_sample_bernoulli_frequency():
    """Cell frequencies over many draws stay near p (loose 5-sigma band)."""
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2, Fraction(1, 3))
    draws = 3000
    total = 0
    for t in range(draws):
        total += sample_matrix(spec, RandomStream(99, t)).one_count()
    mean = total / (draws * 4)
    sigma = math.sqrt((1 / 3) * (2 / 3) / (draws * 4))
    assert abs(mean - 1 / 3) < 5 * sigma


def test_support_size():
    assert support_size(EnsembleSpec(EnsembleKind.BERNOULLI, 2, 3, Fraction(1, 2))) == 64
    assert support_size(EnsembleSpec(EnsembleKind.BERNOULLI, 2, 3, Fraction(0))) == 1
    assert support_size(EnsembleSpec(EnsembleKind.EXACT_ONES, 2, 2)) == 6
    assert support_size(EnsembleSpec(EnsembleKind.EDGE_COUNT, 3, 3)) == math.comb(9, 3)


def test_enumerate_bernoulli_covers_support():
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2, Fraction(1, 2))
    seen = list(enumerate_ensemble(spec))
    assert len(seen) == 16
    assert len(set(seen)) == 16
    total = sum(matrix_probability(spec, a) for a in seen)
    assert total == 1


def test_enumerate_exactones_covers_support():
    spec = EnsembleSpec(EnsembleKind.EXACT_ONES, 2, 3)
    seen = list(enumerate_ensemble(spec))
    assert len(seen) == math.comb(9, 2)
    assert all(a.one_count() == 2 for a in seen)
    assert len(set(seen)) == len(seen)
    total = sum(matrix_probability(spec, a) for a in seen)
    assert total == 1


def test_enumerate_degenerate_p_single_point():
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2, Fraction(1))
    assert list(enumerate_ensemble(spec)) == [ZeroOneMatrix.ones(2, 2)]


def test_matrix_probability_values():
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2, Fraction(1, 3))
    a = ZeroOneMatrix.from_rows([[1, 0], [0, 0]])
    assert matrix_probability(spec, a) == Fraction(1, 3) * Fraction(2, 3) ** 3
    spec = EnsembleSpec(EnsembleKind.EXACT_ONES, 1, 2)
    assert matrix_probability(spec, a) == Fraction(1, 4)
    assert matrix_probability(spec, ZeroOneMatrix.ones(2, 2)) == 0
    with pytest.raises(DomainError):
        matrix_probability(spec, ZeroOneMatrix.ones(3, 3))


def test_enumeration_caps():
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, 5, 5, Fraction(1, 2))
    with pytest.raises(CapacityError):
        list(enumerate_ensemble(spec))
    spec = EnsembleSpec(EnsembleKind.EXACT_ONES, 30, 12)
    with pytest.raises(CapacityError):
        list(enumerate_ensemble(spec))


class NoDraws:
    def randbelow(self, bound):
        raise AssertionError("sampling drew before checking the cell cap")


def test_sampling_cap_applies_before_any_draw():
    for text in ("edges:100000:100000", f"bernoulli:{MAX_SAMPLE_CELLS + 1}:1:1/2"):
        with pytest.raises(CapacityError):
            sample_matrix(EnsembleSpec.parse(text), NoDraws())
    sparse = sample_matrix(EnsembleSpec.parse("edges:200:200"), RandomStream(1, 0))
    assert (sparse.rows, sparse.cols) == (200, 200)
    assert sparse.one_count() == 200


def test_spec_validation():
    with pytest.raises(DomainError):
        EnsembleSpec(EnsembleKind.BERNOULLI, -1, 2, Fraction(1, 2))
    with pytest.raises(DomainError):
        EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2, Fraction(3, 2))
    with pytest.raises(DomainError):
        EnsembleSpec(EnsembleKind.EXACT_ONES, 5, 2)  # 5 ones, 4 cells
    with pytest.raises(DomainError):
        EnsembleSpec(EnsembleKind.EXACT_ONES, 2, 2, Fraction(1, 2))  # stray p
    with pytest.raises(DomainError):
        EnsembleSpec(EnsembleKind.BERNOULLI, 2, 2)  # p missing


def test_stream_determinism_and_independence():
    a = [RandomStream(5, 1).randbelow(1000) for _ in range(5)]
    b = [RandomStream(5, 1).randbelow(1000) for _ in range(5)]
    assert a == b
    c = [RandomStream(5, 2).randbelow(1000) for _ in range(5)]
    assert a != c
    with pytest.raises(ValueError):
        RandomStream(0, 0).randbelow(0)


class SubstitutedBlocks(RandomStream):
    """A stream whose blocks are given, recording which ones it asked for."""

    def __init__(self, blocks):
        super().__init__(0, 0)
        self.blocks = blocks
        self.asked = []

    def _block(self, i):
        self.asked.append(i)
        return self.blocks[i]


class CountedBlocks(RandomStream):
    """The real stream, recording which blocks it hashed."""

    def __init__(self, seed, stream_id):
        super().__init__(seed, stream_id)
        self.asked = []

    def _block(self, i):
        self.asked.append(i)
        return super()._block(i)


def test_stream_rejection_accepts_each_value_below_bound_once():
    """Every k-bit chunk, fed highest value first: the values >= bound are
    all rejected and each r < bound comes out once, as itself, so draws are
    exactly uniform whenever the bits are."""
    for bound in range(1, 65):
        k = (bound - 1).bit_length()
        chunks = range(2**k - 1, -1, -1)
        assert k * len(chunks) <= BLOCK_BITS
        block = sum(v << (k * j) for j, v in enumerate(chunks))
        stream = SubstitutedBlocks([block])
        assert [stream.randbelow(bound) for _ in range(bound)] == list(range(bound - 1, -1, -1))
        assert stream.asked == ([0] if k else [])


def test_stream_draw_across_blocks_replays():
    bound = 2**600 + 1
    stream = CountedBlocks(3, 5)
    x = stream.randbelow(bound)
    assert stream.asked == [0, 1]
    # this draw is accepted at once: the low 601 bits of blocks 0 and 1
    pool = RandomStream(3, 5)._block(0) | RandomStream(3, 5)._block(1) << BLOCK_BITS
    assert x == pool & ((1 << 601) - 1) < bound
    fresh = RandomStream(3, 5)
    assert fresh.randbelow(bound) == x
    assert fresh.randbelow(bound) == stream.randbelow(bound)


def test_stream_randbelow_one_takes_no_bits():
    stream = CountedBlocks(5, 9)
    assert [stream.randbelow(1) for _ in range(3)] == [0, 0, 0]
    assert stream.asked == []
    fresh = RandomStream(5, 9)
    assert stream.randbelow(1000) == fresh.randbelow(1000)
    stream.randbelow(1)
    assert stream.randbelow(2**40) == fresh.randbelow(2**40)


def test_stream_keys_are_unambiguous():
    draws = {
        key: [RandomStream(*key).randbelow(2**64) for _ in range(2)]
        for key in ((1, 23), (12, 3), (123, 0), (-1, 23))
    }
    assert len({tuple(d) for d in draws.values()}) == len(draws)


def test_stream_first_draws_pinned():
    """Any change to the stream's bits, their order or the rejection moves
    these (stream version 2)."""
    bounds = (2, 6, 1000, 2**64)
    pinned = {
        (0, 0): [1, 1, 508, 16855577202493577052],
        (4, SAMPLING_STREAM): [0, 2, 793, 4710939701553050784],
        (-3, 12): [0, 1, 537, 4732468730680597330],
    }
    for key, first in pinned.items():
        stream = RandomStream(*key)
        assert [stream.randbelow(b) for b in bounds] == first


def test_enumerate_degenerate_bernoulli():
    """p = 0 and p = 1 have a one-matrix support."""
    for p, matrix in (
        (Fraction(0), ZeroOneMatrix.zeros(3, 5)), (Fraction(1), ZeroOneMatrix.ones(3, 5))
    ):
        assert list(enumerate_ensemble(EnsembleSpec(EnsembleKind.BERNOULLI, 3, 5, p))) == [matrix]
