"""Command line interface.

Subcommands:

    exact       count matchings of one matrix, with a permanent cross-check
    estimate    run randomized trials (rm or amm) against exact values
    moments     evaluate one closed-form ensemble moment by formula id
    verify      run the self-check suite (small or full tier)
    ratio-scan  tabulate mean, second moment and critical ratio over n

Matrices come from --input FILE (text format: "m n" header, then 0/1 rows)
or --random SPEC (e.g. bernoulli:4:4:1/2) plus --seed.  Every reported value
is exact (integer or p/q); decimal columns are 12-significant-digit
renderings added for reading convenience.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .ensembles import EnsembleSpec, parse_rational, sample_matrix
from .errors import (
    CapacityError,
    DomainError,
    MatchcountError,
    ParseError,
    ShapeError,
    UndefinedRatioError,
)
from .estimators import Method, run_trials
from .exact import (
    TRIAL_MEAN,
    TRIAL_SECOND_MOMENT,
    count_matchings_via_permanent,
    matching_profile,
)
from .matrix import ZeroOneMatrix, read_matrix, write_matrix
from .moments import (
    DECIMAL_DIGITS,
    bernoulli_mean_matchings,
    bernoulli_second_moment,
    edge_count_mean_matchings,
    edge_count_second_moment,
    majority_tail,
    mean_matchings_bounds,
    meets_power_threshold,
    ratio_scan_columns,
    second_moment_diag_lower_bound,
    to_decimal,
)
from .streams import STREAM_VERSION, RandomStream

# Matrices sampled for the CLI use this reserved stream so that trial streams
# (ids 0 .. trials-1) never overlap it.
SAMPLING_STREAM = 2**63
# Sampled matrices up to this side are echoed into the record.
ECHO_LIMIT = 8

FORMULAS = ("thm3", "thm4", "thm5", "thm6", "thm7", "thm8-mean", "thm8-m2")

# Largest n each command accepts, checked before any work.  At each moments
# cap the slowest case took 2.5-8 s on one core of a 2-vCPU Xeon (thm4 at
# n = 2000 2.9-3.4 s, thm6 at 2000 3.9-4.2 s, thm7 at 400 2.6-2.9 s); ratio-scan
# reaches the paper's crossover range instead: its columns are carried across
# n, so 1:700 took 163-167 s and 700:700, nearly all first tail, 27 s.
MAX_N = {"thm3": 4000, "thm4": 2000, "thm5": 4000, "thm6": 2000, "thm7": 400,
         "thm8-mean": 200, "thm8-m2": 40, "ratio-scan": 700}

# estimate refuses trials * (TRIAL_SETUP + rows + ones) above MAX_TRIAL_WORK
# before the first trial.  A trial builds one stream and hashes at most one
# block per 512 bits it draws, then makes one draw per row and clears at most
# one bit per 1-entry.  On one core of a 2-vCPU Xeon (Python 3.11) a row
# costs about 0.2 us and a trial's fixed cost less than 10 rows, so
# TRIAL_SETUP = 20 over-counts it: the slowest admitted case, 1000 all-zero
# rows, took 1.6-1.8 s, and a 0x0 matrix 0.15 s.
TRIAL_SETUP = 20
MAX_TRIAL_WORK = 8 * 10**6


@dataclass
class ResultRecord:
    """One command's output: echoed parameters, exact values, renderings."""

    command: str
    params: dict[str, str] = field(default_factory=dict)
    values: dict[str, str] = field(default_factory=dict)
    decimals: dict[str, str] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    matrix_text: str | None = None
    elapsed_ms: float = 0.0

    def put(self, name: str, value, decimal: bool = True):
        self.values[name] = str(value)
        if decimal:
            self.decimals[name] = to_decimal(value)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "params": self.params,
            "values": self.values,
            "decimals": self.decimals,
            "flags": self.flags,
            "notes": self.notes,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.matrix_text is not None:
            out["matrix"] = self.matrix_text
        return out


def _ratio_columns(n: int, mean: Fraction, second: Fraction) -> tuple:
    """thm6's columns past its mean and second moment at n: the ratio,
    whether it meets n^(sqrt(n)/2), that threshold to DECIMAL_DIGITS digits,
    and the diagonal lower bound.  The threshold is decided before it is
    rendered, so n < 1 is refused before the Decimal power meets 0 ** 0."""
    ratio = second / mean**2
    meets = meets_power_threshold(ratio, n)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 8
        threshold = Decimal(n) ** (Decimal(n).sqrt() / 2)
        ctx.prec = DECIMAL_DIGITS
        threshold = str(+threshold)
    return ratio, meets, threshold, second_moment_diag_lower_bound(n)


def _render_record(record: ResultRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        header = ["command"]
        row = [record.command]
        for prefix, mapping in (
            ("param:", record.params),
            ("value:", record.values),
            ("decimal:", record.decimals),
            ("flag:", record.flags),
        ):
            header += [prefix + key for key in mapping]
            row += mapping.values()
        header.append("notes")
        row.append("; ".join(record.notes))
        if record.matrix_text is not None:
            header.append("matrix")
            row.append(record.matrix_text)
        return _render_table(record.command, header, [row], fmt)
    lines = [record.command]
    for key, value in record.params.items():
        lines.append(f"  {key} = {value}")
    for key, value in record.values.items():
        if key in record.decimals and record.decimals[key] != value:
            lines.append(f"  {key} = {value}  ({record.decimals[key]})")
        else:
            lines.append(f"  {key} = {value}")
    for key, value in record.flags.items():
        lines.append(f"  {key} = {'true' if value else 'false'}")
    for note in record.notes:
        lines.append(f"  note: {note}")
    if record.matrix_text is not None:
        lines.append("  matrix:")
        lines.extend("    " + line for line in record.matrix_text.splitlines())
    lines.append(f"  elapsed-ms = {record.elapsed_ms:.3f}")
    return "\n".join(lines) + "\n"


def _render_table(command: str, columns: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        payload = {
            "command": command,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return json.dumps(payload, indent=2, default=str) + "\n"
    text_rows = [
        [str(v).lower() if isinstance(v, bool) else str(v) for v in row] for row in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(text_rows)
        return buf.getvalue()
    widths = [
        max(len(col), *(len(row[i]) for row in text_rows)) if text_rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip()]
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))).rstrip())
    return "\n".join(lines) + "\n"


def _load_matrix(args, record: ResultRecord) -> ZeroOneMatrix:
    if args.input is not None:
        with open(args.input, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args.input} is not UTF-8 text: {exc.reason}") from None
        a = read_matrix(text)
        record.params["input"] = args.input
    else:
        spec = EnsembleSpec.parse(args.random)
        a = sample_matrix(spec, RandomStream(args.seed, SAMPLING_STREAM))
        record.params["random"] = str(spec)
    record.params["rows"] = str(a.rows)
    record.params["cols"] = str(a.cols)
    if args.input is None and max(a.rows, a.cols) <= ECHO_LIMIT:
        record.matrix_text = write_matrix(a)
    return a


def cmd_exact(args) -> tuple[ResultRecord, int]:
    record = ResultRecord("exact")
    if args.input is None:
        record.params["seed"] = str(args.seed)
        record.params["stream"] = str(STREAM_VERSION)
    a = _load_matrix(args, record)
    profile = matching_profile(a)
    count = sum(profile)
    record.put("count", count)
    record.put("profile", " ".join(str(c) for c in profile), decimal=False)
    code = 0
    try:
        via = count_matchings_via_permanent(a)
        record.flags["permanent-route-match"] = via == count
        if via != count:
            record.put("permanent-route-count", via)
            code = 1
    except (ShapeError, CapacityError) as exc:
        record.notes.append(f"permanent cross-check skipped: {exc}")
    return record, code


def cmd_estimate(args) -> tuple[ResultRecord, int]:
    if args.workers < 1:
        raise DomainError(f"workers must be >= 1, got {args.workers}")
    record = ResultRecord("estimate")
    record.params["seed"] = str(args.seed)
    record.params["stream"] = str(STREAM_VERSION)
    a = _load_matrix(args, record)
    method = Method(args.method)
    record.params["method"] = method.value
    record.params["trials"] = str(args.trials)
    record.params["workers"] = str(args.workers)
    ones, trials = a.one_count(), args.trials
    if trials * (TRIAL_SETUP + a.rows + ones) > MAX_TRIAL_WORK:
        shown = trials if trials < 10**18 else f"a {len(str(trials))}-digit number of"
        raise CapacityError(
            f"estimate supports trials * ({TRIAL_SETUP} + rows + ones) <= {MAX_TRIAL_WORK}, "
            f"got {shown} trials on a {a.rows}x{a.cols} matrix with {ones} ones"
        )
    stats = run_trials(a, method, args.trials, args.seed)
    record.put("mean", stats.mean)
    record.put("second-moment", stats.second_moment)
    record.put("variance", stats.variance)
    try:
        record.put("empirical-ratio", stats.empirical_ratio)
    except UndefinedRatioError:
        record.notes.append("empirical ratio undefined: sample mean is 0")
    try:
        exact = TRIAL_MEAN[method](a)
        record.put("exact-value", exact)
        if exact:
            record.put("rel-error", abs(stats.mean - exact) / exact)
            record.put("exact-ratio", Fraction(TRIAL_SECOND_MOMENT[method](a), exact**2))
        else:
            record.notes.append("exact ratio undefined: mean is 0")
    except CapacityError as exc:
        record.notes.append(f"exact side skipped: {exc}")
    return record, 0


def _parse_eps(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise MatchcountError(f"--eps wants a rational like 1/50, got {text!r}") from None


def _require(args, record: ResultRecord, *names: str):
    for name in names:
        if getattr(args, name) is None:
            raise MatchcountError(f"formula {args.formula} needs --{name}")
        record.params[name] = str(getattr(args, name))


def _cap_n(command: str, n: int):
    if n > MAX_N[command]:
        shown = n if n < 10**18 else f"a {len(str(n))}-digit n"
        raise CapacityError(f"{command} supports n <= {MAX_N[command]}, got {shown}")


def cmd_moments(args) -> tuple[ResultRecord, int]:
    record = ResultRecord("moments")
    record.params["formula"] = args.formula
    formula = args.formula
    if args.n is not None:
        _cap_n(formula, args.n)
    if formula in ("thm3", "thm4"):
        _require(args, record, "n")
        m = args.n if args.m is None else args.m
        record.params["m"] = str(m)
        fn = bernoulli_mean_matchings if formula == "thm3" else bernoulli_second_moment
        record.put("value", fn(m, args.n))
    elif formula == "thm5":
        _require(args, record, "n")
        bounds = mean_matchings_bounds(args.n)
        record.put("kstar", bounds.kstar, decimal=False)
        record.put("peak", bounds.peak)
        record.put("mean", bounds.mean)
        record.put("upper", bounds.upper)
        record.put("n-peak", bounds.n_peak)
        record.flags["peak-le-mean"] = bounds.peak_le_mean
        record.flags["mean-le-upper"] = bounds.mean_le_upper
        record.flags["mean-le-n-peak"] = bounds.mean_le_n_peak
    elif formula == "thm6":
        _require(args, record, "n")
        mean = bernoulli_mean_matchings(args.n, args.n)
        second = bernoulli_second_moment(args.n, args.n)
        ratio, meets, threshold, diag = _ratio_columns(args.n, mean, second)
        record.put("mean", mean)
        record.put("second-moment", second)
        record.put("ratio", ratio)
        record.flags["ratio-ge-threshold"] = meets
        record.values["threshold"] = threshold
        record.put("lower-bound-diag", diag)
    elif formula == "thm7":
        _require(args, record, "n")
        eps = _parse_eps(args.eps)
        record.params["eps"] = str(eps)
        record.put("value", majority_tail(args.n, eps))
    else:  # thm8-mean, thm8-m2
        _require(args, record, "n", "m")
        fn = edge_count_mean_matchings if formula == "thm8-mean" else edge_count_second_moment
        record.put("value", fn(args.n, args.m))
    return record, 0


def cmd_verify(args) -> tuple[tuple, int]:
    # Imported here so that the other commands never load verify and oracles.
    from .verify import run_suite

    results = run_suite(args.suite)
    columns = ["check", "status", "ms", "detail"]
    rows = [
        [r.name, "pass" if r.passed else "FAIL", f"{r.elapsed_ms:.1f}", r.detail]
        for r in results
    ]
    return ("verify", columns, rows), 0 if all(r.passed for r in results) else 1


def cmd_ratio_scan(args) -> tuple[tuple, int]:
    try:
        lo, hi = (int(part) for part in args.n_range.split(":"))
    except ValueError:
        raise MatchcountError(f"--n-range wants LO:HI, got {args.n_range!r}") from None
    if not 1 <= lo <= hi:
        raise MatchcountError(f"--n-range wants 1 <= LO <= HI, got {args.n_range!r}")
    _cap_n("ratio-scan", hi)
    eps = _parse_eps(args.eps)
    columns = [
        "n",
        "mean",
        "second-moment",
        "ratio",
        "ratio-decimal",
        "threshold-decimal",
        "ratio-ge-threshold",
        "lower-bound-diag",
        "majority-tail",
    ]
    rows = []
    for n, mean, second, tail in ratio_scan_columns(lo, hi, eps):
        ratio, meets, threshold, diag = _ratio_columns(n, mean, second)
        rows.append([n, mean, second, ratio, to_decimal(ratio), threshold, meets, diag, tail])
    return ("ratio-scan", columns, rows), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcount",
        description="Exact and randomized counting of bipartite matchings in 0-1 matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")

    def add_matrix_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="FILE", help="matrix file ('m n' header, 0/1 rows)")
        source.add_argument(
            "--random",
            metavar="SPEC",
            help="sample from bernoulli:m:n:p, exactones:m:n or edges:m:n",
        )
        p.add_argument("--seed", type=int, default=0)

    p_exact = sub.add_parser("exact", help="exact matching count and profile of one matrix")
    add_matrix_source(p_exact)
    add_common(p_exact)
    p_exact.set_defaults(handler=cmd_exact)

    p_est = sub.add_parser("estimate", help="randomized trials with exact comparison")
    add_matrix_source(p_est)
    p_est.add_argument("--method", choices=tuple(m.value for m in Method), default="amm")
    p_est.add_argument("--trials", type=int, default=1000)
    p_est.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; trials run on one thread",
    )
    add_common(p_est)
    p_est.set_defaults(handler=cmd_estimate)

    p_mom = sub.add_parser("moments", help="closed-form ensemble moments")
    p_mom.add_argument("formula", choices=FORMULAS)
    p_mom.add_argument("--n", type=int, default=None)
    p_mom.add_argument("--m", type=int, default=None)
    p_mom.add_argument("--eps", default="1/50", help="rational like 1/50")
    add_common(p_mom)
    p_mom.set_defaults(handler=cmd_moments)

    p_ver = sub.add_parser("verify", help="run the self-check suite")
    p_ver.add_argument("--suite", choices=("small", "full"), default="small")
    add_common(p_ver)
    p_ver.set_defaults(handler=cmd_verify)

    p_scan = sub.add_parser("ratio-scan", help="mean/second moment/ratio table over n")
    p_scan.add_argument("--n-range", default="1:40", help="inclusive LO:HI")
    p_scan.add_argument("--eps", default="1/50", help="rational like 1/50")
    add_common(p_scan)
    p_scan.set_defaults(handler=cmd_ratio_scan)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: its handler returns a record or a (command,
    columns, rows) table plus the exit code; main times the record, renders
    either by --format and writes it to --out or stdout."""
    args = build_parser().parse_args(argv)
    # Exact values run past Python's 4300-digit int <-> str limit (3.10.7+),
    # so main lifts it until it returns; read_matrix bounds its header first.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    start = time.perf_counter()
    try:
        output, code = args.handler(args)
        if isinstance(output, ResultRecord):
            output.elapsed_ms = (time.perf_counter() - start) * 1000.0
            text = _render_record(output, args.format)
        else:
            text = _render_table(*output, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (MatchcountError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # raised with no message; the layers it held are gone once it lands here
        print("error: out of memory", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
