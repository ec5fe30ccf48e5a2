"""Exact counting: row sweep, brute-force agreement, permanent routes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcount
import matchcount.exact as exact
from matchcount.cli import main
from matchcount.ensembles import EnsembleKind, EnsembleSpec, enumerate_ensemble, sample_matrix
from matchcount.errors import CapacityError, EquivalenceViolationError, UndefinedRatioError
from matchcount.estimators import Method
from matchcount.exact import (
    _lane_bits,
    _layout,
    _popcount_sums,
    _sweep,
    amm_trial_second_moment,
    count_all_matchings,
    count_matchings_via_permanent,
    critical_ratio,
    matching_profile,
    permanent_ryser,
    rm_trial_second_moment,
)
from matchcount.matrix import ZeroOneMatrix, build_transformed, write_matrix
from matchcount.oracles import (
    brute_force_matching_count,
    brute_force_matching_profile,
    permanent_naive,
)
from matchcount.streams import RandomStream


def all_matrices(m, n):
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))
    return enumerate_ensemble(spec)


def test_count_known_values():
    assert count_all_matchings(ZeroOneMatrix.zeros(0, 0)) == 1
    assert count_all_matchings(ZeroOneMatrix.zeros(3, 4)) == 1
    assert count_all_matchings(ZeroOneMatrix.ones(1, 1)) == 2
    assert count_all_matchings(ZeroOneMatrix.ones(2, 2)) == 7
    assert count_all_matchings(ZeroOneMatrix.identity(3)) == 8
    # 3x3 all-ones: 1 empty + 9 singles + 18 pairs + 6 triples
    assert count_all_matchings(ZeroOneMatrix.ones(3, 3)) == 34


def test_count_matches_brute_force_exhaustive():
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                assert count_all_matchings(a) == brute_force_matching_count(a)


def test_count_transpose_invariant():
    """Wide inputs are swept transposed; both orientations must agree."""
    for m, n in ((3, 2), (2, 5), (5, 2)):
        for a in all_matrices(m, n):
            at = ZeroOneMatrix.from_rows(
                [[a.entry(i, j) for i in range(a.rows)] for j in range(a.cols)]
            )
            assert count_all_matchings(a) == count_all_matchings(at)
            profile, profile_t = matching_profile(a), matching_profile(at)
            assert len(profile) == a.cols + 1
            assert len(profile_t) == at.cols + 1
            k = min(m, n) + 1
            assert profile[:k] == profile_t[:k]
            assert not any(profile[k:]) and not any(profile_t[k:])


def test_matching_profile():
    assert matching_profile(ZeroOneMatrix.ones(2, 2)) == [1, 4, 2]
    assert matching_profile(ZeroOneMatrix.zeros(2, 2)) == [1, 0, 0]
    assert matching_profile(ZeroOneMatrix.identity(3)) == [1, 3, 3, 1]
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                profile = matching_profile(a)
                assert profile == brute_force_matching_profile(a)
                assert sum(profile) == count_all_matchings(a)
                assert len(profile) == n + 1
                # no matching can use more rows than exist
                assert all(c == 0 for c in profile[m + 1:])


def test_permanent_known_values():
    """ones(n, n) is one class of n identical lines on both sides; identity(n)
    has no repeated line, so it takes the full 2^n-term sum."""
    assert permanent_ryser(ZeroOneMatrix.zeros(0, 0)) == 1
    for n in range(21):
        assert permanent_ryser(ZeroOneMatrix.ones(n, n)) == math.factorial(n)
        assert permanent_ryser(ZeroOneMatrix.identity(n)) == 1


def test_permanent_matches_naive_exhaustive():
    """Every square matrix with n <= 3, and every doubled matrix with n <= 2,
    whose n all-ones rows form one class of the grouped sum."""
    for n in range(4):
        for a in all_matrices(n, n):
            assert permanent_ryser(a) == permanent_naive(a)
            if n <= 2:
                b = build_transformed(a)
                assert permanent_ryser(b) == permanent_naive(b)


def test_count_via_permanent_route():
    """Every square matrix with n <= 3, and seeded fair-coin ones of side 7
    to 10, the route's cap."""
    for n in range(4):
        for a in all_matrices(n, n):
            assert count_matchings_via_permanent(a) == count_all_matchings(a)
    for n in range(7, 11):
        spec = EnsembleSpec(EnsembleKind.BERNOULLI, n, n, Fraction(1, 2))
        for seed in range(2):
            a = sample_matrix(spec, RandomStream(seed, n))
            assert count_matchings_via_permanent(a) == count_all_matchings(a)


def off_by_one_permanent(a):
    """n! * count + 1 for a doubled matrix: a permanent n! cannot divide."""
    n = a.rows // 2
    top = ZeroOneMatrix(n, n, tuple(mask & ((1 << n) - 1) for mask in a.row_masks[:n]))
    return math.factorial(n) * count_all_matchings(top) + 1


def test_permanent_route_refuses_an_indivisible_permanent(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(exact, "permanent_ryser", off_by_one_permanent)
    a = ZeroOneMatrix.ones(2, 2)
    with pytest.raises(EquivalenceViolationError, match="not divisible by 2!"):
        count_matchings_via_permanent(a)
    path = tmp_path / "a.txt"
    path.write_text(write_matrix(a), encoding="utf-8")
    assert main(["exact", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: permanent 15 not divisible by 2!\n"
    assert "Traceback" not in captured.err


def test_permanent_route_refuses_an_indivisible_permanent_under_optimize():
    """The divisibility check is not an assert, so python3 -O keeps it."""
    script = (
        "import matchcount.exact as exact\n"
        "from matchcount.errors import EquivalenceViolationError\n"
        "from matchcount.matrix import ZeroOneMatrix\n"
        "exact.permanent_ryser = lambda a: 2 * 7 + 1\n"
        "try:\n"
        "    exact.count_matchings_via_permanent(ZeroOneMatrix.ones(2, 2))\n"
        "except EquivalenceViolationError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(matchcount.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "permanent 15 not divisible by 2!\n"


def test_transformed_permanent_identity():
    """per of the doubled block matrix equals n! times the matching count."""
    for n in range(1, 4):
        for a in all_matrices(n, n):
            b = build_transformed(a)
            assert permanent_ryser(b) == math.factorial(n) * count_all_matchings(a)


def test_trial_second_moments_small():
    assert amm_trial_second_moment(ZeroOneMatrix.ones(2, 2)) == 51
    assert rm_trial_second_moment(ZeroOneMatrix.identity(2)) == 1
    assert amm_trial_second_moment(ZeroOneMatrix.zeros(2, 2)) == 1
    assert rm_trial_second_moment(ZeroOneMatrix.zeros(2, 2)) == 0


def test_critical_ratio_values():
    assert critical_ratio(ZeroOneMatrix.ones(2, 2), Method.AMM) == Fraction(51, 49)
    assert critical_ratio(ZeroOneMatrix.identity(2), Method.RM) == Fraction(1)
    with pytest.raises(UndefinedRatioError):
        critical_ratio(ZeroOneMatrix.zeros(2, 2), Method.RM)
    # AMM output is always >= 1, so its ratio is always defined
    assert critical_ratio(ZeroOneMatrix.zeros(2, 2), Method.AMM) == Fraction(1)


def test_critical_ratio_at_least_one():
    """Second moment >= square of mean, always."""
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                assert critical_ratio(a, Method.AMM) >= 1
                if m == n and permanent_ryser(a) > 0:
                    assert critical_ratio(a, Method.RM) >= 1


def test_capacity_limits():
    """Sweep caps bound the widest connected component, not the matrix shape."""
    with pytest.raises(CapacityError, match="got one of 25"):
        count_all_matchings(ZeroOneMatrix.ones(25, 25))
    with pytest.raises(CapacityError, match="got one of 25"):
        matching_profile(ZeroOneMatrix.ones(25, 25))
    # the moments never transpose, so 25 columns in one component are too many
    with pytest.raises(CapacityError, match="got one of 25"):
        amm_trial_second_moment(ZeroOneMatrix.ones(1, 25))
    with pytest.raises(CapacityError, match="got one of 25"):
        rm_trial_second_moment(ZeroOneMatrix.ones(25, 25))
    with pytest.raises(CapacityError):
        permanent_ryser(ZeroOneMatrix.zeros(21, 21))
    with pytest.raises(CapacityError):
        count_matchings_via_permanent(ZeroOneMatrix.zeros(11, 11))
    # a zero matrix has no component; a single row is one row wide
    assert count_all_matchings(ZeroOneMatrix.zeros(1, 25)) == 1
    assert count_all_matchings(ZeroOneMatrix.ones(1, 30)) == 31
    assert matching_profile(ZeroOneMatrix.ones(30, 1)) == [1, 30]
    # right at the cap is fine
    assert count_all_matchings(ZeroOneMatrix.zeros(1, 24)) == 1
    assert amm_trial_second_moment(ZeroOneMatrix.ones(1, 24)) == 25**2


def test_tall_matrix_has_no_recursion_limit():
    """Row count costs time only: 3000 rows are swept without recursion."""
    a = ZeroOneMatrix.ones(3000, 3)
    assert count_all_matchings(a) == sum(
        math.comb(3000, k) * math.comb(3, k) * math.factorial(k) for k in range(4)
    ) == 27000006001
    assert matching_profile(a) == [
        1, 9000, 3 * 2 * math.comb(3000, 2), 6 * math.comb(3000, 3)
    ]


def test_amm_second_moment_ignores_zero_rows():
    """A zero row gives the amm trial a single skip branch with q = 1."""
    a = ZeroOneMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    padded = ZeroOneMatrix(a.rows + 3000, a.cols, a.row_masks + (0,) * 3000)
    assert amm_trial_second_moment(padded) == amm_trial_second_moment(a) == 318


def test_wide_matrix_stays_fast():
    """24 columns is within the cap and finishes promptly for a sparse matrix."""
    rows = [[1 if j in (i, i + 1) else 0 for j in range(24)] for i in range(12)]
    a = ZeroOneMatrix.from_rows(rows)
    assert count_all_matchings(a) == brute_force_matching_count(a)


def whole_sweep(a, skip=True, weighted=False):
    """Last layer of one dict-layer (c = 0) sweep over the whole matrix, rows as given."""
    return _sweep(a.row_masks, skip, weighted, 0, 0)


def whole_profile(a):
    counts = [0] * (a.cols + 1)
    for used, value in whole_sweep(a).items():
        counts[used.bit_count()] += value
    return counts


def polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def block_union(a, b, interleave):
    """[[a, 0], [0, b]], with the rows of a and b alternating if interleave."""
    top = list(a.row_masks)
    bottom = [mask << a.cols for mask in b.row_masks]
    if interleave:
        rows = []
        for k in range(max(a.rows, b.rows)):
            rows += top[k:k + 1] + bottom[k:k + 1]
    else:
        rows = top + bottom
    return ZeroOneMatrix(a.rows + b.rows, a.cols + b.cols, tuple(rows))


def insert_zero_line(a, i, j):
    """a with a zero row inserted before row i and a zero column before column j."""
    low = (1 << j) - 1
    masks = [(mask & low) | ((mask & ~low) << 1) for mask in a.row_masks]
    masks.insert(i, 0)
    return ZeroOneMatrix(a.rows + 1, a.cols + 1, tuple(masks))


# Same examples on every run, so tier-1 stays deterministic and fast.
DETERMINISTIC = settings(derandomize=True, max_examples=80, deadline=None, database=None)


@st.composite
def matrices(draw, max_side=3, square=False):
    m = draw(st.integers(0, max_side))
    n = m if square else draw(st.integers(0, max_side))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return ZeroOneMatrix(m, n, tuple(masks))


@st.composite
def repeated_lines(draw):
    """An n x n matrix (n <= 7) whose rows, columns or both repeat: entry
    (i, j) is base[row_of[i]][col_of[j]] for a smaller base matrix."""
    n = draw(st.integers(1, 7))
    repeat = draw(st.sampled_from(["rows", "cols", "both"]))
    r = draw(st.integers(1, n)) if repeat != "cols" else n
    c = draw(st.integers(1, n)) if repeat != "rows" else n
    base = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r))
    row_of = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)) if r < n else range(n)
    col_of = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)) if c < n else range(n)
    masks = tuple(
        sum(1 << j for j, src in enumerate(col_of) if base[i] >> src & 1) for i in row_of
    )
    return ZeroOneMatrix(n, n, masks)


@DETERMINISTIC
@given(repeated_lines())
def test_grouped_ryser_on_repeated_lines(a):
    """Classes of identical rows or columns, and the transpose, which moves
    them to the other side, against the permutation sum."""
    at = ZeroOneMatrix.from_rows(
        [[a.entry(i, j) for i in range(a.rows)] for j in range(a.cols)]
    )
    assert permanent_ryser(a) == permanent_ryser(at) == permanent_naive(a)


@DETERMINISTIC
@given(matrices(), matrices(), st.booleans())
def test_block_union_factorises(a, b, interleave):
    """Count and amm moment multiply over a block-diagonal union; profiles convolve."""
    u = block_union(a, b, interleave)
    assert count_all_matchings(u) == count_all_matchings(a) * count_all_matchings(b)
    assert matching_profile(u) == polymul(matching_profile(a), matching_profile(b))
    assert amm_trial_second_moment(u) == (
        amm_trial_second_moment(a) * amm_trial_second_moment(b)
    )


@DETERMINISTIC
@given(matrices(square=True), matrices(square=True), st.booleans())
def test_block_union_rm_moment_factorises(a, b, interleave):
    u = block_union(a, b, interleave)
    assert rm_trial_second_moment(u) == (
        rm_trial_second_moment(a) * rm_trial_second_moment(b)
    )


def test_interleaved_rows_keep_input_order():
    """The moments walk rows in input order, so interleaving must not reorder them.

    The blocks are chosen so that reversing either block's rows changes its
    amm moment; the interleaved union still gives the product in input order.
    """
    a = ZeroOneMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    b = ZeroOneMatrix.from_rows([[1, 0], [1, 1]])
    flipped = ZeroOneMatrix(a.rows, a.cols, a.row_masks[::-1])
    assert amm_trial_second_moment(a) != amm_trial_second_moment(flipped)
    u = block_union(a, b, interleave=True)
    assert u.row_masks[:2] == (a.row_masks[0], b.row_masks[0] << 3)
    assert amm_trial_second_moment(u) == 318 * amm_trial_second_moment(b)
    assert sum(whole_sweep(u, True, True).values()) == amm_trial_second_moment(u)
    square_a = ZeroOneMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    square_b = ZeroOneMatrix.from_rows([[1, 1], [0, 1]])
    v = block_union(square_a, square_b, interleave=True)
    assert rm_trial_second_moment(v) == (
        rm_trial_second_moment(square_a) * rm_trial_second_moment(square_b)
    ) == sum(whole_sweep(v, False, True).values())


@DETERMINISTIC
@given(matrices(square=True), st.data())
def test_zero_row_and_column(a, data):
    """A zero line leaves count and amm moment alone and kills every rm trial."""
    i = data.draw(st.integers(0, a.rows))
    j = data.draw(st.integers(0, a.cols))
    z = insert_zero_line(a, i, j)
    assert count_all_matchings(z) == count_all_matchings(a)
    assert matching_profile(z) == matching_profile(a) + [0]
    assert amm_trial_second_moment(z) == amm_trial_second_moment(a)
    assert rm_trial_second_moment(z) == 0


def test_hundred_disjoint_blocks():
    """100 disjoint 2x2 all-ones blocks: each contributes 1 + 4x + 2x^2."""
    a = ZeroOneMatrix(200, 200, tuple(0b11 << (2 * (i // 2)) for i in range(200)))
    assert count_all_matchings(a) == 7**100
    expect = [1]
    for _ in range(100):
        expect = polymul(expect, [1, 4, 2])
    assert matching_profile(a) == expect
    assert amm_trial_second_moment(a) == 51**100
    assert rm_trial_second_moment(a) == 4**100


def test_factorised_sweep_matches_whole_sweep_exhaustive():
    """Every fair-coin matrix with m, n <= 4 and m * n <= 12, all four quantities.

    Count and profile are checked against brute-force enumeration, and all
    four against one sweep over the whole matrix with no component split.
    """
    seen = 0
    for m in range(5):
        for n in range(5):
            if m * n > 12:
                continue
            for a in all_matrices(m, n):
                count, profile = count_all_matchings(a), matching_profile(a)
                assert count == brute_force_matching_count(a)
                assert count == sum(whole_sweep(a).values())
                assert profile == brute_force_matching_profile(a) == whole_profile(a)
                assert amm_trial_second_moment(a) == sum(whole_sweep(a, True, True).values())
                if m == n:
                    assert rm_trial_second_moment(a) == sum(
                        whole_sweep(a, False, True).values()
                    )
                seen += 1
    assert seen == 9427


def packed_quantities(masks, width, c):
    """Count, profile and amm moment of one sweep over masks in b-bit lanes,
    c low columns per int, with no component split."""
    b = _lane_bits(masks, False)
    layer = _sweep(masks, True, False, b, c)
    bw = _lane_bits(masks, True)
    return (
        sum(layer.values()) % ((1 << b) - 1),
        _popcount_sums(layer, width, b, c),
        sum(_sweep(masks, True, True, bw, c).values()) % ((1 << bw) - 1),
    )


def dict_quantities(a):
    profile = whole_profile(a)
    return sum(profile), profile, sum(whole_sweep(a, True, True).values())


def test_packed_layer_matches_dict_layer_exhaustive():
    """Every fair-coin matrix with m, n <= 4, 0 x n and m x 0 included: the
    packed layer gives the dict layer's (c = 0) count, profile and amm
    moment, with the number c of low columns per int cycling through
    1 .. n (0 when n = 0).  Public calls this small take c = 0."""
    seen = 0
    for m in range(5):
        for n in range(5):
            for i, a in enumerate(all_matrices(m, n)):
                c = 1 + i % n if n else 0
                assert packed_quantities(a.row_masks, n, c) == dict_quantities(a)
                seen += 1
    assert seen == sum(2 ** (m * n) for m in range(5) for n in range(5))


@DETERMINISTIC
@given(matrices(max_side=9), st.data())
def test_packed_layer_matches_dict_layer(a, data):
    """Shapes up to 10x10 with a zero row and a zero column, any number
    c = 1 .. n of low columns per int, against the dict layer (c = 0)."""
    z = insert_zero_line(a, data.draw(st.integers(0, a.rows)), data.draw(st.integers(0, a.cols)))
    c = data.draw(st.integers(1, z.cols))
    assert packed_quantities(z.row_masks, z.cols, c) == dict_quantities(z)


def test_packed_lane_width_at_a_lane_boundary():
    """identity(8) swept whole has 2^8 = 256 matchings.  Its lanes each hold
    1, so 8-bit lanes would hold them, but not the total: 256 mod 255 = 1."""
    rows = ZeroOneMatrix.identity(8).row_masks
    b = _lane_bits(rows, False)
    assert b == 16
    for c in (0, 4, 8):
        assert sum(_sweep(rows, True, False, b, c).values()) % ((1 << b) - 1) == 256
    assert sum(_sweep(rows, True, False, 8, 8).values()) % 255 == 1


def bidiagonal(n):
    """n x n, row i with ones at columns i and i + 1: a path on 2n vertices."""
    return ZeroOneMatrix(n, n, tuple((0b11 << i) & ((1 << n) - 1) for i in range(n)))


def fair_coin(m, n, seed):
    spec = EnsembleSpec(EnsembleKind.BERNOULLI, m, n, Fraction(1, 2))
    return sample_matrix(spec, RandomStream(seed, 0))


def band(n, reach):
    """n x n, row i with ones at columns i - reach .. i + reach."""
    full = (1 << n) - 1
    return ZeroOneMatrix(
        n, n, tuple(((1 << (2 * reach + 1)) - 1) << i >> reach & full for i in range(n))
    )


def test_packing_rule():
    """(b, c) packs only skip sweeps wider than DICT_MAX_WIDTH with lanes of
    at most MAX_LANE_BITS, with the most low columns c <= width whose 2^c
    lanes fit CHUNK_BITS; everything else takes the dict, (0, 0).  No byte
    budget applies: the bidiagonal band of side 24, a fair-coin 24x24 and
    the amm moments of the tridiagonal and pentadiagonal bands of side 24
    pack, and the amm lanes of a 3000-row component are too wide.  The rm
    sweep, which cannot skip, takes (0, 0) at every width: the c > 0 sweep
    assumes the skip branch."""
    ones5 = list(ZeroOneMatrix.ones(5, 5).row_masks)
    assert _lane_bits(ones5, False) == 16 and _lane_bits(ones5, True) == 32
    assert _layout(5, ones5, True, False) == (16, 5)
    assert _layout(5, ones5, True, True) == (32, 5)
    assert _layout(4, ones5[:4], True, False) == (0, 0)
    assert _layout(5, ones5, False, True) == (0, 0)
    for width in range(25):
        rows = list(ZeroOneMatrix.ones(width, width).row_masks)
        assert _layout(width, rows, False, True) == (0, 0)
    ones12 = list(ZeroOneMatrix.ones(12, 14).row_masks)
    assert _layout(12, ones12, True, False) == (_lane_bits(ones12, False), 10) == (48, 10)
    tall = [0b11111] * 3000
    assert _layout(5, tall, True, False) == (_lane_bits(tall, False), 5) == (64, 5)
    assert _lane_bits(tall, True) > exact.MAX_LANE_BITS
    assert _layout(5, tall, True, True) == (0, 0)
    assert _layout(24, list(bidiagonal(24).row_masks), True, False) == (40, 10)
    dense = list(fair_coin(24, 24, 0).row_masks)
    assert _layout(24, dense, True, False) == (96, 9)
    assert _layout(24, list(band(24, 1).row_masks), True, True) == (96, 9)
    assert _layout(24, list(band(24, 2).row_masks), True, True) == (128, 9)


def record_layouts(monkeypatch):
    """Wrap _sweep so that every call appends its number c of low columns."""
    seen = []
    sweep = exact._sweep

    def recorded(rows, skip, weighted, b, c):
        seen.append(c)
        return sweep(rows, skip, weighted, b, c)

    monkeypatch.setattr(exact, "_sweep", recorded)
    return seen


def test_packed_components_match_the_dict_sweep(monkeypatch):
    """Count, profile and amm moment of packed components (c > 0) equal
    those of one dict-layer (c = 0) sweep over the whole matrix."""
    inputs = [fair_coin(m, n, 1) for m, n in ((6, 6), (9, 7), (5, 12))]
    seen = record_layouts(monkeypatch)
    for a in inputs:
        got = count_all_matchings(a), matching_profile(a), amm_trial_second_moment(a)
        assert got == dict_quantities(a)
    assert len(seen) == 9 and all(seen)


def test_band_amm_moments_at_full_width():
    """The amm moments of the tridiagonal and pentadiagonal bands of side 24,
    swept packed, equal the values the dict layer (c = 0) gave for them."""
    assert amm_trial_second_moment(band(24, 1)) == 4628541889788168737851392
    assert amm_trial_second_moment(band(24, 2)) == 6063323974210945707945128143888


def corpus(workload):
    """The benchmark's full corpus for a workload, each matrix with its
    transpose where the workload also runs that."""
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    for entry in golden["corpus"][workload]["full"]:
        a = ZeroOneMatrix.from_rows([[int(ch) for ch in row] for row in entry["rows"]])
        yield a
        if entry["pair"]:
            yield ZeroOneMatrix.from_rows(
                [[a.entry(i, j) for i in range(a.rows)] for j in range(a.cols)]
            )


def test_benchmark_traffic_takes_both_layouts(monkeypatch):
    """Both layouts carry benchmark traffic: every component of the
    exact-dense corpus packs (c > 0), every component of a matrix up to
    3x3 (verify small's shapes) takes the dict (c = 0), and so do the rm
    moments of the trials corpus, whose amm moments pack.  A layout rule
    that moves a whole workload onto one layout fails here."""
    seen = record_layouts(monkeypatch)
    for a in corpus("exact-dense"):
        matching_profile(a)
    assert len(seen) == 9 and all(seen)
    seen.clear()
    for m in range(4):
        for n in range(4):
            for a in all_matrices(m, n):
                count_all_matchings(a), matching_profile(a), amm_trial_second_moment(a)
                if m == n:
                    rm_trial_second_moment(a)
    assert len(seen) > 2000 and not any(seen)
    seen.clear()
    trials = list(corpus("trials"))
    for a in trials:
        rm_trial_second_moment(a)
    assert len(seen) == len(trials) == 3 and not any(seen)
    seen.clear()
    for a in trials:
        amm_trial_second_moment(a)
    assert len(seen) == 3 and all(seen)


def test_all_ones_profile_closed_form():
    """profile(ones(m, n))_k = C(m, k) C(n, k) k!, up to ones(14, 20), where no
    oracle reaches; also behind a zero row and column, so that the
    component's columns do not start at 0."""
    for m in range(15):
        for n in range(m, 21, 3 if m < 12 else 1):
            want = [math.comb(m, k) * math.comb(n, k) * math.factorial(k) for k in range(n + 1)]
            assert matching_profile(ZeroOneMatrix.ones(m, n)) == want
            assert matching_profile(ZeroOneMatrix.ones(n, m)) == want[: m + 1]
            shifted = insert_zero_line(ZeroOneMatrix.ones(n, m), 0, 0)
            assert matching_profile(shifted) == want[: m + 1] + [0]


def test_bidiagonal_band_counts_are_fibonacci():
    """The band's graph is a path on 2n vertices, so it has F(2n + 1) matchings,
    for every n up to the 24-column cap."""
    fib = [0, 1]
    while len(fib) < 50:
        fib.append(fib[-1] + fib[-2])
    for n in range(25):
        assert count_all_matchings(bidiagonal(n)) == fib[2 * n + 1]


def test_newton_inequalities_on_fair_coin_profiles():
    """The matching polynomial has only real roots (Heilmann and Lieb, 1972),
    so r_k^2 k (nu - k) >= r_(k-1) r_(k+1) (k + 1) (nu - k + 1) for 0 < k < nu,
    nu the largest k with r_k > 0."""
    checked = 0
    for m in range(1, 13):
        for n in range(1, 13):
            r = matching_profile(fair_coin(m, n, m * 13 + n))
            nu = max(k for k, x in enumerate(r) if x)
            for k in range(1, nu):
                assert r[k] ** 2 * k * (nu - k) >= r[k - 1] * r[k + 1] * (k + 1) * (nu - k + 1)
                checked += 1
    assert checked > 400
