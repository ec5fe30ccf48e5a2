"""CLI behavior through main(argv): formats, exit codes, reproducibility."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import matchcount
import matchcount.verify as verify
from matchcount.cli import MAX_N, main
from matchcount.exact import count_all_matchings
from matchcount.matrix import read_matrix, write_matrix, ZeroOneMatrix
from matchcount.moments import bernoulli_mean_matchings, majority_tail
from matchcount.streams import STREAM_VERSION


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def write_ones_2x2(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("2 2\n11\n11\n", encoding="utf-8")
    return str(path)


def test_exact_from_file(tmp_path, capsys):
    code, record = run_json(capsys, "exact", "--input", write_ones_2x2(tmp_path))
    assert code == 0
    assert record["command"] == "exact"
    assert record["values"]["count"] == "7"
    assert record["values"]["profile"] == "1 4 2"
    assert record["flags"]["permanent-route-match"] is True
    assert record["params"]["rows"] == "2"
    assert "matrix" not in record  # file input is not echoed back


def test_exact_text_format(tmp_path, capsys):
    code, out, err = run_cli(capsys, "exact", "--input", write_ones_2x2(tmp_path))
    assert code == 0 and err == ""
    assert "count = 7" in out
    assert "profile = 1 4 2" in out
    assert "permanent-route-match = true" in out


def test_exact_random_echoes_matrix(capsys):
    code, record = run_json(capsys, "exact", "--random", "bernoulli:3:3:1/2", "--seed", "5")
    assert code == 0
    a = read_matrix(record["matrix"])
    assert (a.rows, a.cols) == (3, 3)
    assert str(count_all_matchings(a)) == record["values"]["count"]


def test_exact_random_is_reproducible(capsys):
    _, first = run_json(capsys, "exact", "--random", "bernoulli:4:4:1/3", "--seed", "11")
    _, second = run_json(capsys, "exact", "--random", "bernoulli:4:4:1/3", "--seed", "11")
    assert first["values"] == second["values"]
    assert first["matrix"] == second["matrix"]
    _, other = run_json(capsys, "exact", "--random", "bernoulli:4:4:1/3", "--seed", "12")
    assert first["matrix"] != other["matrix"]


def test_exact_skips_cross_check_when_not_square(capsys):
    code, record = run_json(capsys, "exact", "--random", "bernoulli:2:3:1/2", "--seed", "0")
    assert code == 0
    assert "permanent-route-match" not in record["flags"]
    assert any("cross-check skipped" in note for note in record["notes"])


def test_exact_skips_cross_check_above_permanent_cap(capsys):
    code, record = run_json(capsys, "exact", "--random", "bernoulli:11:11:1/2", "--seed", "0")
    assert code == 0
    assert "permanent-route-match" not in record["flags"]
    assert any(
        "cross-check skipped" in note and "n <= 10" in note for note in record["notes"]
    )



def test_exact_reports_a_permanent_route_that_disagrees(monkeypatch, tmp_path, capsys):
    """A permanent route whose count n! divides but differs from the sweep's
    fails exact, with the route's count shown next to the sweep's."""
    real = matchcount.cli.count_matchings_via_permanent
    monkeypatch.setattr(matchcount.cli, "count_matchings_via_permanent", lambda a: real(a) + 1)
    code, record = run_json(capsys, "exact", "--input", write_ones_2x2(tmp_path))
    assert code == 1
    assert record["flags"]["permanent-route-match"] is False
    assert record["values"]["count"] == "7"
    assert record["values"]["permanent-route-count"] == "8"


def test_estimate_notes_a_skipped_exact_side(tmp_path, capsys):
    """rm's exact mean is Ryser's permanent, capped at 20 columns: on a 21x21
    input estimate still reports its trials, with a note in json and text."""
    path = tmp_path / "identity21.txt"
    path.write_text(write_matrix(ZeroOneMatrix.identity(21)), encoding="utf-8")
    argv = ["estimate", "--input", str(path), "--method", "rm", "--trials", "10"]
    note = "exact side skipped: permanent_ryser supports at most 20 columns, got 21"
    code, record = run_json(capsys, *argv)
    assert code == 0
    assert record["values"]["mean"] == "1"
    assert "exact-value" not in record["values"]
    assert record["notes"] == [note]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert f"\n  note: {note}\n" in out

def test_exact_rejects_missing_file(capsys):
    code, out, err = run_cli(capsys, "exact", "--input", "/no/such/file.txt")
    assert code == 1
    assert err.startswith("error:")


def test_exact_rejects_bad_spec(capsys):
    code, out, err = run_cli(capsys, "exact", "--random", "uniform:2:2:1/2")
    assert code == 1
    assert err.startswith("error:")


def test_exact_rejects_malformed_matrix(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n11\n1x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "exact", "--input", str(path))
    assert code == 1
    assert "line 3" in err


def test_exact_caps_component_not_matrix_width(tmp_path, capsys):
    """One 30-column row is a single component one row wide."""
    path = tmp_path / "wide.txt"
    path.write_text("1 30\n" + "1" * 30 + "\n", encoding="utf-8")
    code, record = run_json(capsys, "exact", "--input", str(path))
    assert code == 0
    assert record["values"]["count"] == "31"
    assert record["values"]["profile"] == " ".join(["1", "30"] + ["0"] * 29)


def test_exact_rejects_wide_component(tmp_path, capsys):
    path = tmp_path / "dense.txt"
    path.write_text("25 25\n" + ("1" * 25 + "\n") * 25, encoding="utf-8")
    code, out, err = run_cli(capsys, "exact", "--input", str(path))
    assert code == 1
    assert err.startswith("error:") and "25" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "thm7", "--n", "3", "--eps", "abc"),
        ("moments", "thm7", "--n", "3", "--eps", "1/0"),
        ("moments", "thm7", "--n", "3", "--eps", "1e-99999"),
        ("ratio-scan", "--n-range", "1:3", "--eps", "xyz"),
        ("estimate", "--random", "bernoulli:2:2:1/2", "--workers", "0"),
        ("estimate", "--random", "bernoulli:2:2:1/2", "--workers", "-3"),
        ("exact", "--random", "edges:100000:100000"),
        ("moments", "thm4", "--n", "2", "--m", "3"),
        ("moments", "thm6", "--n", "0"),
        ("moments", "thm8-mean", "--n", "-1", "--m", "0"),
        ("exact", "--random", "bernoulli:2:2:1e-9999999"),
        ("moments", "thm4", "--n", "1000000"),
        ("ratio-scan", "--n-range", "9" * 5000 + ":" + "9" * 5000),
        ("estimate", "--random", "bernoulli:2:2:1/2", "--trials", "1000000000000"),
    ],
)
def test_boundary_errors_exit_cleanly(argv):
    """Bad arguments print one error line and exit 1, with no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(matchcount.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "matchcount.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_memory_error_exits_cleanly(monkeypatch, capsys):
    """A sweep that runs out of memory ends in one error line and exit 1,
    not a traceback."""

    def exhausted(a):
        raise MemoryError

    monkeypatch.setattr(matchcount.cli, "matching_profile", exhausted)
    code, out, err = run_cli(capsys, "exact", "--random", "bernoulli:3:3:1/2")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_package_runs_as_a_module():
    """python3 -m matchcount runs the command line from a source checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(matchcount.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "matchcount", "exact", "--random", "bernoulli:3:3:1/2",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["command"] == "exact"
    assert record["flags"]["permanent-route-match"] is True


def test_only_verify_loads_the_check_modules():
    """A fresh import of the command line leaves verify and oracles unloaded,
    so exact, estimate and moments never compile them; verify itself still
    loads them and passes its 12 small checks."""
    env = dict(os.environ, PYTHONPATH=str(Path(matchcount.__file__).parents[1]))
    probe = (
        "import sys, matchcount.cli; "
        "print(sorted(m for m in ('matchcount.verify', 'matchcount.oracles') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    proc = subprocess.run(
        [sys.executable, "-m", "matchcount", "verify", "--suite", "small", "--format", "csv"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert [row[1] for row in rows[1:]] == ["pass"] * 12


def test_exact_out_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, err = run_cli(
        capsys, "exact", "--input", write_ones_2x2(tmp_path),
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    record = json.loads(out_path.read_text(encoding="utf-8"))
    assert record["values"]["count"] == "7"


def test_estimate_against_exact(tmp_path, capsys):
    code, record = run_json(
        capsys, "estimate", "--input", write_ones_2x2(tmp_path),
        "--method", "amm", "--trials", "400", "--seed", "3",
    )
    assert code == 0
    assert record["values"]["exact-value"] == "7"
    assert record["values"]["exact-ratio"] == "51/49"
    mean = Fraction(record["values"]["mean"])
    assert 5 <= mean <= 9
    assert Fraction(record["values"]["second-moment"]) >= mean**2


def test_estimate_worker_invariance(tmp_path, capsys):
    path = write_ones_2x2(tmp_path)
    _, one = run_json(capsys, "estimate", "--input", path, "--trials", "300", "--seed", "5")
    _, four = run_json(
        capsys, "estimate", "--input", path, "--trials", "300", "--seed", "5",
        "--workers", "4",
    )
    assert one["values"]["mean"] == four["values"]["mean"]
    assert one["values"]["second-moment"] == four["values"]["second-moment"]


def test_estimate_readme_example_pins_the_streams(capsys):
    """The README example's seeded values, with and without --workers."""
    argv = ("estimate", "--random", "bernoulli:10:10:1/2", "--seed", "4", "--trials", "20000")
    for extra in ((), ("--workers", "4")):
        code, record = run_json(capsys, *argv, *extra)
        assert code == 0
        assert record["values"]["mean"] == "49366501681/20000"
        assert record["values"]["exact-value"] == "2459132"


def test_records_name_the_stream_version(tmp_path, capsys):
    """Every record whose values come from a stream says which stream."""
    path = write_ones_2x2(tmp_path)
    for argv in (
        ("estimate", "--random", "bernoulli:3:3:1/2", "--trials", "5"),
        ("estimate", "--input", path, "--trials", "5"),
        ("exact", "--random", "bernoulli:3:3:1/2"),
    ):
        _, record = run_json(capsys, *argv)
        assert record["params"]["stream"] == str(STREAM_VERSION) == "2"
    _, record = run_json(capsys, "exact", "--input", path)
    assert "stream" not in record["params"]


def test_estimate_reproducible_from_echoed_params(capsys):
    """The JSON record carries everything needed to re-run the command."""
    _, record = run_json(
        capsys, "estimate", "--random", "bernoulli:4:4:1/2", "--seed", "9",
        "--method", "amm", "--trials", "250",
    )
    p = record["params"]
    _, again = run_json(
        capsys, "estimate", "--random", p["random"], "--seed", p["seed"],
        "--method", p["method"], "--trials", p["trials"], "--workers", p["workers"],
    )
    assert again["values"] == record["values"]


def test_estimate_rm_rejects_rectangles(capsys):
    code, out, err = run_cli(
        capsys, "estimate", "--random", "bernoulli:2:3:1/2", "--method", "rm"
    )
    assert code == 1
    assert err.startswith("error:")


def test_estimate_rm_zero_mean_note(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text("2 2\n00\n00\n", encoding="utf-8")
    code, record = run_json(
        capsys, "estimate", "--input", str(path), "--method", "rm", "--trials", "50"
    )
    assert code == 0
    assert record["values"]["mean"] == "0"
    assert any("undefined" in note for note in record["notes"])


def test_moments_thm3(capsys):
    code, record = run_json(capsys, "moments", "thm3", "--n", "4")
    assert code == 0
    assert record["values"]["value"] == "81/2"
    assert record["decimals"]["value"] == "40.5"
    assert record["params"]["m"] == "4"  # m defaults to n
    code, record = run_json(capsys, "moments", "thm3", "--n", "3", "--m", "2")
    assert record["values"]["value"] == str(bernoulli_mean_matchings(2, 3))


def test_moments_thm4(capsys):
    code, record = run_json(capsys, "moments", "thm4", "--n", "2")
    assert code == 0
    assert record["values"]["value"] == "61/4"


def test_moments_thm5(capsys):
    code, record = run_json(capsys, "moments", "thm5", "--n", "6")
    assert code == 0
    assert record["flags"]["peak-le-mean"] is True
    assert record["flags"]["mean-le-upper"] is True
    peak = Fraction(record["values"]["peak"])
    mean = Fraction(record["values"]["mean"])
    upper = Fraction(record["values"]["upper"])
    assert peak <= mean <= upper
    assert upper == 7 * peak


def test_moments_thm6(capsys):
    code, record = run_json(capsys, "moments", "thm6", "--n", "2")
    assert code == 0
    assert record["values"]["ratio"] == "61/49"
    assert record["flags"]["ratio-ge-threshold"] is False
    assert record["values"]["threshold"].startswith("1.6325269")
    assert Fraction(record["values"]["lower-bound-diag"]) <= Fraction(61, 4)


def test_moments_thm7(capsys):
    code, record = run_json(capsys, "moments", "thm7", "--n", "2", "--eps", "1/50")
    assert code == 0
    assert record["values"]["value"] == "5/16"
    assert record["decimals"]["value"] == "0.3125"


def test_moments_thm8(capsys):
    code, record = run_json(capsys, "moments", "thm8-mean", "--n", "2", "--m", "4")
    assert code == 0
    assert record["values"]["value"] == "7"
    code, record = run_json(capsys, "moments", "thm8-m2", "--n", "2", "--m", "4")
    assert record["values"]["value"] == "49"


def test_moments_thm8_m2_refuses_past_cap_at_once(capsys):
    """One past the cap is refused before any work, even with a single one."""
    n = MAX_N["thm8-m2"] + 1
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "moments", "thm8-m2", "--n", str(n), "--m", "1")
    assert time.perf_counter() - start < 1
    assert code == 1 and err.startswith("error:") and out == ""


def test_moments_missing_parameter(capsys):
    code, out, err = run_cli(capsys, "moments", "thm8-mean", "--n", "2")
    assert code == 1
    assert "--m" in err
    code, out, err = run_cli(capsys, "moments", "thm3")
    assert code == 1
    assert "--n" in err


def test_moments_eps_domain(capsys):
    code, out, err = run_cli(capsys, "moments", "thm7", "--n", "2", "--eps", "1/49")
    assert code == 1
    assert err.startswith("error:")


def test_moments_unknown_formula_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["moments", "thm9", "--n", "2"])
    capsys.readouterr()


def test_verify_small_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "small", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "status", "ms", "detail"]
    assert len(rows) == 13  # header + 12 checks
    assert all(row[1] == "pass" for row in rows[1:])


def test_verify_full_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "full", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "status", "ms", "detail"]
    assert len(rows) == 22  # header + 12 small checks + 9 full extras
    assert all(row[1] == "pass" for row in rows[1:])


@pytest.mark.parametrize("tier", ["small", "full"])
def test_verify_check_names_are_unique(tier, monkeypatch):
    """A csv or json reader can key each tier's rows by check name.  _each
    is stubbed, so every check reports its name without running a case."""
    monkeypatch.setattr(
        verify, "_each", lambda name, cases, compare, noun: verify.CheckResult(name, True, noun, 0)
    )
    names = [result.name for result in verify.run_suite(tier)]
    assert len(names) == (12 if tier == "small" else 21)
    assert len(set(names)) == len(names), names


def test_verify_reports_counterexample(monkeypatch, capsys):
    """A corrupted counting routine must fail verify with the matrix shown:
    profile-vs-enumeration checks the count against the profile's sum."""
    real = verify.count_all_matchings
    monkeypatch.setattr(verify, "count_all_matchings", lambda a: real(a) + 1)
    result = verify.check_profile_vs_enumeration()
    assert not result.passed
    assert "!= count; counterexample:" in result.detail
    tail = result.detail.split("counterexample:\n", 1)[1]
    assert read_matrix(tail).rows >= 1

    code, out, err = run_cli(capsys, "verify", "--suite", "small")
    assert code == 1
    assert "FAIL" in out


def test_closed_forms_report_a_wrong_count_and_profile(monkeypatch):
    """closed-forms fails on a count that is off at full width only, where no
    oracle reaches, and on a profile that is off although its sum is right;
    _newton_gap finds the k at which a profile breaks Newton's inequality."""
    real_count, real_profile = verify.count_all_matchings, verify.matching_profile
    monkeypatch.setattr(
        verify, "count_all_matchings", lambda a: real_count(a) + (a.rows == 20)
    )
    result = verify.check_closed_forms()
    assert not result.passed
    assert read_matrix(result.detail.split("counterexample:\n", 1)[1]).rows == 20
    monkeypatch.setattr(verify, "count_all_matchings", real_count)

    def shifted(a):
        profile = real_profile(a)
        if a.rows == a.cols == 12:
            profile[1] += 1
            profile[2] -= 1
        return profile

    monkeypatch.setattr(verify, "matching_profile", shifted)
    result = verify.check_closed_forms()
    assert not result.passed and result.detail.startswith("profile [1, 145, ")
    assert verify._newton_gap([1, 1, 5]) == 1
    assert verify._newton_gap([1, 3, 3, 1]) is None


def test_ratio_scan_columns_report_the_first_wrong_row(monkeypatch):
    """ratio-scan-columns fails on a per-n tail that is off at n = 100 only,
    naming the column, n and the scan; ratio-crossover fails on a second
    moment whose closed form is off at n = 357."""
    real_tail = verify.majority_tail
    monkeypatch.setattr(
        verify, "majority_tail", lambda n, eps: real_tail(n, eps) + (n == 100)
    )
    result = verify.check_ratio_scan_columns()
    assert not result.passed
    assert result.detail == (
        "carried majority tail differs from the per-n route at n = 100; counterexample:\n"
        "ratio-scan --n-range 1:200 --eps 1/50"
    )
    real_closed = verify.bernoulli_second_moment_closed_form
    monkeypatch.setattr(
        verify, "bernoulli_second_moment_closed_form", lambda m, n: real_closed(m, n) + (n == 357)
    )
    result = verify.check_ratio_crossover()
    assert not result.passed
    assert result.detail.startswith("second moment differs from its closed form at n")
    assert result.detail.endswith("counterexample:\n357")


def test_verify_reports_a_raising_route_and_goes_on(monkeypatch, capsys):
    """A route that raises fails its own check with a counterexample; the
    other checks still run and pass."""
    real = matchcount.exact.permanent_ryser
    monkeypatch.setattr(
        matchcount.exact,
        "permanent_ryser",
        lambda a: real(a) + 1 if (a.rows, a.cols) == (4, 4) else real(a),
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "small", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "status", "ms", "detail"]
    assert len(rows) == 13  # header + 12 checks
    failed = [row for row in rows[1:] if row[1] != "pass"]
    assert [row[:2] for row in failed] == [["permanent-route", "FAIL"]]
    detail = failed[0][3]
    assert "EquivalenceViolationError" in detail
    counterexample = read_matrix(detail.split("counterexample:\n", 1)[1])
    assert (counterexample.rows, counterexample.cols) == (2, 2)



def test_formula_checks_enumerate_each_grid_point_once(monkeypatch):
    """Each formula check reads both of its moments from one enumeration per
    grid point: 10 fair-coin points, 17 fixed-ones points and the 3 of the
    4x4 rerun."""
    specs = []
    real = matchcount.moments.enumerate_ensemble
    monkeypatch.setattr(
        matchcount.moments, "enumerate_ensemble", lambda spec: specs.append(spec) or real(spec)
    )
    rerun = next(
        check for check in verify.FULL_EXTRAS
        if getattr(check, "func", None) is verify.check_edge_count_formulas
    )
    for check, points in (
        (verify.check_fair_coin_formulas, 10), (verify.check_edge_count_formulas, 17), (rerun, 3)
    ):
        specs.clear()
        assert check().passed
        assert len(specs) == len(set(specs)) == points


def test_formula_checks_name_the_moment_routes_and_point(monkeypatch):
    """A formula off by one at one grid point fails its check with that
    point as counterexample and the moment and both routes named."""
    real_mean = verify.bernoulli_mean_matchings
    monkeypatch.setattr(
        verify, "bernoulli_mean_matchings", lambda m, n: real_mean(m, n) + ((m, n) == (2, 3))
    )
    mean = real_mean(2, 3)
    assert verify.check_fair_coin_formulas().detail == (
        f"mean formula {mean + 1}, enumeration {mean} at (m, n); counterexample:\n(2, 3)"
    )
    monkeypatch.setattr(verify, "bernoulli_mean_matchings", real_mean)
    real_closed = verify.bernoulli_second_moment_closed_form
    monkeypatch.setattr(
        verify,
        "bernoulli_second_moment_closed_form",
        lambda m, n: real_closed(m, n) + ((m, n) == (5, 7)),
    )
    second = real_closed(5, 7)
    assert verify.check_fair_coin_formulas().detail == (
        f"second moment recurrence {second}, closed form {second + 1} at (m, n); "
        "counterexample:\n(5, 7)"
    )
    real_second = verify.edge_count_second_moment
    monkeypatch.setattr(
        verify, "edge_count_second_moment", lambda n, m: real_second(n, m) + ((n, m) == (3, 5))
    )
    second = real_second(3, 5)
    assert verify.check_edge_count_formulas().detail == (
        f"second moment formula {second + 1}, enumeration {second} at (n, m); "
        "counterexample:\n(3, 5)"
    )


def test_run_suite_refuses_an_unknown_tier():
    with pytest.raises(ValueError, match="unknown tier 'bogus'"):
        verify.run_suite("bogus")

def test_ratio_scan_csv(capsys):
    code, out, err = run_cli(
        capsys, "ratio-scan", "--n-range", "1:6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert [row["n"] for row in rows] == [str(n) for n in range(1, 7)]
    for row in rows:
        assert Fraction(row["ratio"]) > 1
        assert row["ratio-ge-threshold"] in ("true", "false")
        assert Fraction(row["majority-tail"]) <= Fraction(1, 2)
    assert rows[1]["ratio"] == "61/49"
    assert rows[1]["majority-tail"] == "5/16"


def test_ratio_scan_json(capsys):
    code, payload = run_json(capsys, "ratio-scan", "--n-range", "2:3")
    assert code == 0
    assert payload["command"] == "ratio-scan"
    assert [row["n"] for row in payload["rows"]] == [2, 3]
    assert payload["rows"][0]["ratio"] == "61/49"


# sha256 of `ratio-scan --n-range 1:40` by format, as the per-n scan printed
# it before the columns were carried across n.  bench/golden.json skips the
# decimal columns; these pin every byte.
RATIO_SCAN_1_40_SHA256 = {
    "text": "5eea063ecc079a1131dd95cc41fa36f5d34f8560143e12e7e2cde21c18bf919f",
    "csv": "c5d3e0330e118bf4fb8a850f01f62b6d8a502df152fa17281467af8a2a9a43aa",
    "json": "b3b0c1d3f7a9a8da73b54c61e8a8efd487834bef3fb9d28ac9102239de918484",
}


@pytest.mark.parametrize("fmt", sorted(RATIO_SCAN_1_40_SHA256))
def test_ratio_scan_bytes_pinned(fmt, capsys):
    code, out, err = run_cli(capsys, "ratio-scan", "--n-range", "1:40", "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RATIO_SCAN_1_40_SHA256[fmt]


# The json values (by sha256), decimals and flags of five moments records,
# as the row-by-row second moment and the bottom-up math.comb tail printed
# them before both ran the carried recurrences.
MOMENTS_PINNED = {
    "thm4 --n 200": (
        {"value": "5ec59864999a5c095d1acc5a87bdd2598bdb23cfe4f15a846b131366d100be7e"},
        {"value": "1.39647884453E+675"},
        {},
    ),
    "thm4 --n 200 --m 77": (
        {"value": "a3f285044b6554c2bfb64fbba20250360f4ca31d4c1080307773f66c6ef601f9"},
        {"value": "3.76721568921E+294"},
        {},
    ),
    "thm6 --n 60": (
        {
            "mean": "4c481299329ba6f006e250973363db86f458e48f185f003a357ea408c0c251db",
            "second-moment": "a0d95179a99fcdc663c33f0f2d0161881ab32f148f504de7358ff0fe7d570d38",
            "ratio": "b3fe74a8fef599b1b90f27059eb42cea5156e53ec1fe367c0ac85b8e93c90ffd",
            "threshold": "7434d49f0862fd5d8c85b25c3264946e15bedf1aab381265be26027f4f7355f4",
            "lower-bound-diag": "be95dcadd4df235f943df32f9fbc1e66dd15617ccdcee9a52f229c5db3db4be9",
        },
        {
            "mean": "8.37691627537E+71",
            "second-moment": "1.71832777560E+148",
            "ratio": "24487.1172403",
            "lower-bound-diag": "5.34912028428E+142",
        },
        {"ratio-ge-threshold": False},
    ),
    "thm7 --n 60": (
        {"value": "9a3739650379039e0c5f816cf2d47e1a821b8ab2539704b0561dbd3aa9a90ca3"},
        {"value": "0.00857230673408"},
        {},
    ),
    "thm7 --n 120 --eps 1/1000": (
        {"value": "c2700569050dd9c75c6c83bdd7b94b513bc4ba1a9282a9b98bfcae99d9be6257"},
        {"value": "0.404519740382"},
        {},
    ),
}


@pytest.mark.parametrize("argv", sorted(MOMENTS_PINNED))
def test_moments_records_pinned(argv, capsys):
    """Records carry elapsed_ms, so their fields are pinned, not their bytes."""
    code, record = run_json(capsys, "moments", *argv.split())
    assert code == 0
    values = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in record["values"].items()}
    assert (values, record["decimals"], record["flags"]) == MOMENTS_PINNED[argv]


def test_theory_ops_match_the_benchmark_golden(monkeypatch, capsys):
    """Every theory op of the benchmark, run in-process with --format json,
    gives the values bench/golden.json pins for it, and verify passes."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    from workloads import GOLDEN, Theory, fingerprints

    ops = Theory.OPS + [argv for argv in Theory.TINY_OPS if argv[0] != "verify"]
    for argv in ops:
        code, record = run_json(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "verify":
            assert all(row["status"] == "pass" for row in record["rows"])
            continue
        golden = GOLDEN["theory"][" ".join(argv)]
        got = fingerprints(record)
        assert {key: got.get(key) for key in golden} == golden, argv


def test_ratio_scan_refuses_eps_out_of_domain(capsys):
    code, out, err = run_cli(capsys, "ratio-scan", "--n-range", "3:5", "--eps", "1/49")
    assert code == 1 and out == ""
    assert err.startswith("error: needs 0 < eps <= 1/50")


@contextmanager
def no_int_digit_limit():
    """Lift Python's int <-> str digit limit, to parse long exact values back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_moments_past_the_int_digit_limit(capsys):
    """thm7 at n = 120 has a 4335-digit denominator; it prints in full, and
    main leaves Python's digit limit as it found it."""
    limit = sys.get_int_max_str_digits()
    code, record = run_json(capsys, "moments", "thm7", "--n", "120")
    assert code == 0
    assert run_cli(capsys, "moments", "thm3", "--n", "2000")[0] == 0
    assert sys.get_int_max_str_digits() == limit
    with no_int_digit_limit():
        assert Fraction(record["values"]["value"]) == majority_tail(120, Fraction(1, 50))


def test_ratio_scan_past_the_int_digit_limit(capsys):
    code, out, err = run_cli(capsys, "ratio-scan", "--n-range", "119:121", "--format", "csv")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["n"] for row in rows] == ["119", "120", "121"]
    with no_int_digit_limit():
        for row in rows:
            tail = majority_tail(int(row["n"]), Fraction(1, 50))
            assert Fraction(row["majority-tail"]) == tail


def test_matrix_header_integer_is_bounded(tmp_path, capsys):
    """A 5000-digit header integer is refused at once, not parsed."""
    path = tmp_path / "huge.txt"
    path.write_text("9" * 5000 + " 2\n11\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "exact", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and err.startswith("error:") and out == ""


def test_ratio_scan_rejects_bad_range(capsys):
    for bad in ("5", "0:4", "6:2", "a:b"):
        code, out, err = run_cli(capsys, "ratio-scan", "--n-range", bad)
        assert code == 1
        assert err.startswith("error:")


def test_csv_record_is_well_formed(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "exact", "--input", write_ones_2x2(tmp_path), "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    header, row = rows
    assert len(header) == len(row)
    record = dict(zip(header, row))
    assert record["value:count"] == "7"
    assert record["flag:permanent-route-match"] == "true"


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])
