"""The four workloads: what each op runs, and how each op's output is checked.

An op is one call of the public CLI entry point with a prebuilt argv.  A
workload's ops form a cycle; the harness repeats whole cycles, so every run
executes the same mix.  Input matrices are generated here from the workload
seed (a fixed corpus, relabelled by the seed) and written to --input files,
so the program sees only generated inputs.

Checks never pin seeded trial outputs or timings, so a faster or
differently-seeded program can still pass; they pin exact values.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

# Chebyshev: P(|mean - mu| >= k sigma / sqrt(T)) <= 1/k^2, so k^2 = 10^4 gives
# a false failure probability of at most 10^-4 per op.
CHEBYSHEV_K2 = 10**4


@dataclass
class Op:
    argv: list[str]
    key: str  # identity of the op's input; equal keys must give equal outputs
    info: dict = field(default_factory=dict)
    # estimate ops switch --workers between cycles
    alternate_workers: bool = False

    def argv_for(self, cycle: int, position: int) -> list[str]:
        if not self.alternate_workers:
            return self.argv
        return self.argv + ["--workers", "2" if (cycle + position) % 2 else "1"]


class Matrix:
    """A 0-1 matrix as row bitmasks, in the program's text format."""

    def __init__(self, rows: int, cols: int, masks):
        self.rows, self.cols, self.masks = rows, cols, tuple(masks)

    @classmethod
    def parse(cls, lines: list[str]) -> "Matrix":
        masks = [sum(1 << j for j, ch in enumerate(line) if ch == "1") for line in lines]
        return cls(len(lines), len(lines[0]), masks)

    def transposed(self) -> "Matrix":
        return Matrix(self.cols, self.rows, reference.transpose(self.rows, self.cols, self.masks))

    def permuted(self, row_order, col_order) -> "Matrix":
        masks = []
        for i in row_order:
            mask = self.masks[i]
            masks.append(sum(1 << j for j, src in enumerate(col_order) if mask >> src & 1))
        return Matrix(self.rows, self.cols, masks)

    def write(self, path: Path):
        lines = [f"{self.rows} {self.cols}"]
        lines += ["".join("1" if m >> j & 1 else "0" for j in range(self.cols)) for m in self.masks]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trim(profile: list[int]) -> list[int]:
    out = list(profile)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _fingerprint(text: str) -> str:
    """Short values are stored as they are, long ones as their sha256."""
    if len(text) <= 64:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def build(self, seed: int, tiny: bool, inputs: Path) -> list[Op]:
        raise NotImplementedError

    def warmup(self, ops: list[Op]) -> Op:
        """The set-up op; the same one for every seed."""
        return ops[0]

    def check(self, op: Op, code, text: str) -> str | None:
        """None if the op's output is correct, else the reason it is not."""
        if code != 0:
            return f"exit status {code}"
        try:
            return self._check(op, json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, op: Op, record: dict) -> str | None:
        raise NotImplementedError


class ExactCorpus(Workload):
    """exact on a fixed corpus of matrices, relabelled by the seed.

    The cost of one op depends on the matrix: on uniform 24x24 graphs with 24
    edges it varies about 10x between draws (the memo grows with the number
    of partial matchings), and an 8x18 fair-coin op varied from 0.34 to 1.1 s
    between seeds.  A fresh draw per seed would move a workload's throughput
    by more than any regression bound, so the matrices are fixed (golden.json)
    and the seed only relabels them.  Each op permutes the matrix's columns,
    which leaves the row recursion's state count unchanged; a `pair` matrix
    also runs with its rows permuted and then transposed, which is a column
    permutation of the transpose.  Every op of one corpus matrix must give its
    stored count and profile.
    """

    def __init__(self, name: str):
        self.name = name

    def build(self, seed, tiny, inputs):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for entry in GOLDEN["corpus"][self.name]["tiny" if tiny else "full"]:
            a = Matrix.parse(entry["rows"])
            rows, cols = list(range(a.rows)), list(range(a.cols))
            rng.shuffle(cols)
            variants = [(entry["label"], a.permuted(range(a.rows), cols))]
            if entry["pair"]:
                rng.shuffle(rows)
                variants.append((entry["label"] + "T", a.permuted(rows, range(a.cols)).transposed()))
            for name, m in variants:
                path = inputs / f"{name}.txt"
                m.write(path)
                ops.append(Op(["exact", "--input", str(path), "--format", "json"], name,
                              {"count": entry["count"], "profile": entry["profile"],
                               "cross_check": m.rows == m.cols and m.rows <= 10}))
        return ops

    def _check(self, op, record):
        values = record["values"]
        count = int(values["count"])
        profile = [int(x) for x in values["profile"].split()]
        if profile[0] != 1:
            return f"profile[0] = {profile[0]}, not 1"
        if sum(profile) != count:
            return f"profile sums to {sum(profile)}, count is {count}"
        if op.info["cross_check"] and record["flags"].get("permanent-route-match") is not True:
            return "permanent-route-match is not true"
        if count != op.info["count"] or _trim(profile) != op.info["profile"]:
            return f"count {count}, profile {profile}; the corpus says {op.info['count']}, {op.info['profile']}"
        return None


class Trials(Workload):
    """estimate on fair-coin 10x10 matrices, amm and rm alternating."""

    name = "trials"
    # (method, trials) per op; each consecutive amm/rm pair shares a matrix.
    # An odd cycle puts the median inside one op's repetitions.
    PLAN = [("amm", 4000), ("rm", 5000), ("amm", 6000), ("rm", 7000), ("amm", 8000)]

    def __init__(self):
        self.seen: dict[str, dict] = {}

    def build(self, seed, tiny, inputs):
        # fixed matrices, columns permuted by the seed (see ExactCorpus); the
        # trial seeds come from the workload seed
        rng = random.Random(f"{self.name}:{seed}")
        corpus = GOLDEN["corpus"][self.name]["tiny" if tiny else "full"]
        scale = 40 if tiny else 1
        ops = []
        for k, (method, trials) in enumerate(self.PLAN):
            if k % 2 == 0:
                a = Matrix.parse(corpus[k // 2]["rows"])
                cols = list(range(a.cols))
                rng.shuffle(cols)
                m = a.permuted(range(a.rows), cols)
                path = inputs / f"m{k // 2}.txt"
                m.write(path)
                count = sum(reference.matching_profile(m.rows, m.cols, m.masks))
                refs = {"amm": (count, reference.amm_second_moment(m.masks)),
                        "rm": (reference.permanent(m.masks), reference.rm_second_moment(m.masks))}
            trials //= scale
            trial_seed = rng.randrange(2**32)
            argv = ["estimate", "--input", str(path), "--method", method,
                    "--trials", str(trials), "--seed", str(trial_seed), "--format", "json"]
            ops.append(Op(argv, f"{path.stem}:{method}", {"trials": trials, "ref": refs[method]},
                          alternate_workers=True))
        return ops

    def _check(self, op, record):
        values = record["values"]
        mean = Fraction(values["mean"])
        second = Fraction(values["second-moment"])
        if Fraction(values["variance"]) != second - mean**2:
            return "variance != second moment - mean^2"
        mu, m2 = op.info["ref"]
        if int(values["exact-value"]) != mu:
            return f"exact-value {values['exact-value']} != reference {mu}"
        if mu and Fraction(values["exact-ratio"]) != Fraction(m2, mu * mu):
            return f"exact-ratio {values['exact-ratio']} != reference {Fraction(m2, mu * mu)}"
        if op.info["trials"] * (mean - mu) ** 2 > CHEBYSHEV_K2 * (m2 - mu * mu):
            return f"sample mean {mean} fails the Chebyshev test against {mu}"
        # identical (matrix, method, trials, seed) for any --workers
        first = self.seen.setdefault(op.key, values)
        if values != first:
            return "same trials gave different statistics"
        return None


class Theory(Workload):
    """A fixed cycle of closed-form and self-check commands."""

    name = "theory"
    OPS = [["ratio-scan", "--n-range", "1:40"],
           ["moments", "thm4", "--n", "200"],
           ["moments", "thm8-m2", "--n", "20", "--m", "200"],
           ["moments", "thm7", "--n", "60"],
           ["verify", "--suite", "small"]]
    TINY_OPS = [["ratio-scan", "--n-range", "1:5"],
                ["moments", "thm4", "--n", "10"],
                ["moments", "thm8-m2", "--n", "4", "--m", "8"],
                ["moments", "thm7", "--n", "6"],
                ["verify", "--suite", "small"]]

    def warmup(self, ops):
        return next(op for op in ops if op.argv[1] == "thm4")

    def build(self, seed, tiny, inputs):
        ops = self.TINY_OPS if tiny else self.OPS
        turn = seed % len(ops)
        return [Op(argv + ["--format", "json"], " ".join(argv)) for argv in ops[turn:] + ops[:turn]]

    def _check(self, op, record):
        if record["command"] == "verify":
            failed = [row["check"] for row in record["rows"] if row["status"] != "pass"]
            if failed or not record["rows"]:
                return f"verify checks failed: {failed}"
            return None
        golden = GOLDEN["theory"][op.key]
        got = fingerprints(record)
        wrong = [key for key, value in golden.items() if got.get(key) != value]
        return f"values differ from golden: {wrong}" if wrong else None


def fingerprints(record: dict) -> dict[str, str]:
    """Exact values of a moments record or ratio-scan table, by field."""
    if "rows" in record:
        columns = record["rows"][0].keys()
        return {
            col: _fingerprint("\n".join(str(row[col]) for row in record["rows"]))
            for col in columns
            if not col.endswith("-decimal")
        }
    out = {f"values.{k}": _fingerprint(v) for k, v in record["values"].items()}
    out.update({f"flags.{k}": str(v) for k, v in record["flags"].items()})
    return out


WORKLOADS = {
    "exact-dense": lambda: ExactCorpus("exact-dense"),
    "exact-sparse": lambda: ExactCorpus("exact-sparse"),
    "trials": Trials,
    "theory": Theory,
}
