"""Hypothesis fuzzing of the CLI through main(argv), in process.

Every run must end in exit 0, or in exit 1 with an `error:` line on stderr
and nothing on stdout; no exception may escape main.  A negative matrix
side is refused by every moments formula.  Values that may start
with "-" are passed as --option=value so argparse reads them as values.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from matchcount.cli import FORMULAS, main

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

EPS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 60), st.integers(-2, 1000)),
    st.text("0123456789/-. ", max_size=8),
    st.sampled_from(["1/50", "1/1000", "0.02", "0", "nan", "inf", "1e-3", "1e-99999", "abc"]),
)
N_RANGE = st.lists(
    st.sampled_from(["", "0", "1", "3", "-2", "12", "a", " 2"]), min_size=1, max_size=3
).map(":".join)
SPEC = st.builds(
    lambda kind, parts: ":".join([kind, *parts]),
    st.sampled_from(["bernoulli", "exactones", "edges", "bogus", ""]),
    st.lists(
        st.sampled_from(["-1", "0", "1", "2", "3", "5", "x", "", "1/2", "0.5", "3/2", "1/0",
                         "1e-3", "1e-9999999"]),
        max_size=4,
    ),
)
HEADER = st.one_of(
    st.builds("{} {}".format, st.integers(-1, 4), st.integers(-1, 4)),
    st.sampled_from(["", "2", "a b", "2 2 2", "1000000 1000000"]),
)
MATRIX_FILE = st.one_of(
    st.builds(
        lambda header, rows: "\n".join([header, *rows]) + "\n",
        HEADER,
        st.lists(st.text("01 2x", max_size=5), max_size=5),
    ).map(str.encode),
    st.binary(max_size=16),
)
FORMAT = st.sampled_from(["text", "csv", "json"])
METHOD = st.sampled_from(["amm", "rm"])


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and err.getvalue() == "", argv
    else:
        assert code == 1, argv
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert out.getvalue() == "", argv
    return code


# thm3 and thm7 stay cheap past n = 120, where exact values outgrow Python's
# 4300-digit int <-> str limit, so they also draw n from there.
LARGE_N = {"thm3", "thm7"}


@pytest.mark.parametrize("formula", FORMULAS)
@FUZZ
@given(st.data(), st.none() | st.integers(-3, 40), EPS, FORMAT)
def test_moments_fuzz(formula, data, m, eps, fmt):
    sizes = st.integers(-3, 6)
    if formula in LARGE_N:
        sizes |= st.sampled_from([119, 120, 121])
    n = data.draw(st.none() | sizes)
    argv = ["moments", formula, f"--eps={eps}", "--format", fmt]
    argv += [] if n is None else [f"--n={n}"]
    argv += [] if m is None else [f"--m={m}"]
    code = assert_clean_exit(argv)
    assert n is None or n >= 0 or code == 1, argv


@FUZZ
@given(N_RANGE, EPS, FORMAT)
def test_ratio_scan_fuzz(n_range, eps, fmt):
    assert_clean_exit(["ratio-scan", f"--n-range={n_range}", f"--eps={eps}", "--format", fmt])


@FUZZ
@given(SPEC, st.integers(-5, 2**70), st.integers(-2, 40), METHOD, FORMAT)
def test_random_spec_fuzz(spec, seed, trials, method, fmt):
    source = [f"--random={spec}", f"--seed={seed}", "--format", fmt]
    assert_clean_exit(["exact", *source])
    assert_clean_exit(["estimate", *source, f"--trials={trials}", "--method", method])


@FUZZ
@given(MATRIX_FILE, METHOD, FORMAT)
def test_matrix_file_fuzz(tmp_path_factory, content, method, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz-matrix.txt"
    path.write_bytes(content)
    assert_clean_exit(["exact", "--input", str(path), "--format", fmt])
    assert_clean_exit(["estimate", "--input", str(path), "--trials", "20", "--method", method])
