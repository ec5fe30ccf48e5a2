"""matchcount benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --trace 0|1      (every workload in turn)
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from src/.
Each run starts one child process for the workload, with an address-space
limit on that child only, so a runaway op fails with MemoryError instead of
exhausting the machine.  The child is a closed loop with one client: one op
is one call of matchcount.cli.main, and ops run back to back in whole cycles
of the workload's op list until --seconds have passed.  Outputs are checked
after the loop.  The last line of stdout is the result as JSON; the lines
before it are a readable summary and the environment block.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 first
times cycles without tracing for half the time, then the same cycles with
every public function of the package wrapped in spans (see spans.py), and
reports the per-layer metrics; spans are written to .bench_out/.

--smoke runs every workload once at tiny sizes in both modes and checks that
each metric named in BENCHMARK.json appears with its unit.
"""

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

LAYERS = ("cli", "matrix", "streams", "ensembles", "exact", "estimators", "moments", "oracles", "verify")
# The tail is the highest of these percentiles with at least 10 samples
# beyond it.  The steps are far apart so that the usual op counts of every
# workload (40-999 in 30 s, across 2x swings in machine speed) stay on p75,
# and a faster program is not compared at a different percentile.
TAIL_LADDER = (99, 75, 50)
SETUP_REPS = 5
ADDRESS_SPACE_LIMIT = 2 << 30
CHILD_DEADLINE_S = 170
ALL_CPUS = os.sched_getaffinity(0)
PIN_TURNS = itertools.count()


# ---------------------------------------------------------------------------
# Child: one workload in one process.


def import_package():
    """Fresh import of the package, as a new process would do it."""
    for name in [n for n in sys.modules if n == "matchcount" or n.startswith("matchcount.")]:
        del sys.modules[name]
    return importlib.import_module("matchcount.cli")


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except MemoryError:
            code = "memory limit"
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # an op that raises is a failed op, the loop goes on
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed


def place(argv):
    """Pin a single-threaded op to one CPU, taking the CPUs in turn.

    The vCPUs of a shared VM can differ in speed by 2x; an unpinned op stays
    on whichever CPU it starts on, so whole runs came out fast or slow.  Only
    pinned ops advance the turn, so that every op of a cycle meets every CPU
    even when --workers alternates with the same period as the CPUs.  Ops
    with --workers above 1 may use every CPU.
    """
    workers = argv[argv.index("--workers") + 1] if "--workers" in argv else "1"
    if workers != "1":
        os.sched_setaffinity(0, ALL_CPUS)
        return
    cpus = sorted(ALL_CPUS)
    os.sched_setaffinity(0, {cpus[next(PIN_TURNS) % len(cpus)]})


def run_cycles(cli, ops, budget_s, tracer=None, on_cycle=None):
    """Whole cycles until budget_s has passed (at least one).

    Returns ([(op index, code, stdout, latency ns)], [cycle wall ns])."""
    results, walls = [], []
    start = time.perf_counter_ns()
    while not walls or time.perf_counter_ns() - start < budget_s * 1e9:
        cycle = len(walls)
        cycle_start = time.perf_counter_ns()
        for j, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(results)
            argv = op.argv_for(cycle, j)
            place(argv)
            code, text, elapsed = run_op(cli, argv)
            results.append((j, code, text, elapsed))
        walls.append(time.perf_counter_ns() - cycle_start)
        if on_cycle is not None:
            on_cycle(results[-len(ops):], walls[-1])
    return results, walls


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, -(-len(sorted_values) * pct // 100) - 1)]


def end_to_end(results, walls, setup):
    latencies = sorted(r[3] / 1e6 for r in results)
    n = len(latencies)
    pct = next((p for p in TAIL_LADDER if n - -(-n * p // 100) >= 10), None)
    tail = nearest_rank(latencies, pct) if pct else latencies[-1]
    ok = sum(1 for r in results if r[1] == 0)
    metrics = {
        "throughput_ops_s": ok / (sum(walls) / 1e9),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "tail_percentile": pct if pct else 100,
        "tail_samples_beyond": n - -(-n * (pct or 100) // 100),
        "latency_samples": n,
        "cycle_walls_s": [w / 1e9 for w in walls],
        "setup_reps_s": setup,
        "latencies_ms": [[r[3] / 1e6 for r in results[j::len(results) // len(walls)]]
                         for j in range(len(results) // len(walls))],
    }
    return metrics, detail


def layer_hooks(tracer):
    def ryser_subsets(args, kwargs):
        a = args[0] if args else kwargs["a"]
        if a.rows == a.cols:
            tracer.count("exact.permanent_ryser.subsets", (1 << a.cols) - 1)

    def rm_dead(result):
        if result == 0:
            tracer.count("estimators.rm_trial.dead")

    return {"exact.permanent_ryser": (ryser_subsets, None), "estimators.rm_trial": (None, rm_dead)}


def layer_metrics(totals, op_wall_ns):
    """Per-layer values of one traced cycle, by metric name."""
    counters = totals.pop("counters")

    def stat(name, key):
        return totals.get(name, {}).get(key, 0)

    self_ns = {name: t["self_ns"] for name, t in totals.items()}
    trials = stat("estimators.amm_trial", "calls") + stat("estimators.rm_trial", "calls")
    run_trials_s = stat("estimators.run_trials", "incl_ns") / 1e9
    rm_calls = stat("estimators.rm_trial", "calls")
    values = {
        "exact.permanent_ryser.subsets": counters.get("exact.permanent_ryser.subsets", 0),
        "ensembles.enumerate_ensemble.matrices": counters.get("ensembles.enumerate_ensemble.items", 0),
        "estimators.trials": trials,
        "estimators.trials_per_s": trials / run_trials_s if run_trials_s else 0.0,
        "estimators.rm_dead_ratio": counters.get("estimators.rm_trial.dead", 0) / rm_calls if rm_calls else 0.0,
        "streams.init_share": (
            stat("streams.init", "self_ns") / stat("estimators.run_trials", "incl_ns")
            if run_trials_s else 0.0
        ),
        "trace.self_sum_ratio": sum(self_ns.values()) / op_wall_ns,
        "trace.op_wall_ms": op_wall_ns / 1e6,
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e6
    for name, t in totals.items():
        values[f"{name}.calls"] = t["calls"]
        values[f"{name}.self_ms"] = t["self_ns"] / 1e6
    return values


def child(args):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # noqa: E402  (bench/ is on sys.path)

    inputs = OUT / f"inputs-{args.workload}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: package import, input generation and writing, warm-up op
        setup = []
        for rep in range(SETUP_REPS):
            place([])
            start = time.perf_counter()
            cli = import_package()
            workload = WORKLOADS[args.workload]()
            ops = workload.build(args.seed, args.tiny, inputs)
            warm = workload.warmup(ops)
            warmup = run_op(cli, warm.argv_for(0, 0))
            setup.append(time.perf_counter() - start)

        if args.trace:
            from spans import Tracer

            base, base_walls = run_cycles(cli, ops, args.seconds / 2)
            tracer = Tracer()
            modules = {layer: importlib.import_module(f"matchcount.{layer}") for layer in LAYERS}
            tracer.install(modules, layer_hooks(tracer))
            per_cycle = []

            def collect(cycle_results, wall):
                op_wall = sum(r[3] for r in cycle_results)
                per_cycle.append(layer_metrics(tracer.totals(), op_wall))
                tracer.reset_totals()

            traced, traced_walls = run_cycles(cli, ops, args.seconds / 2, tracer, collect)
            results = base + traced
            names = [m["name"] for m in SPEC["per_layer"]]
            metrics = {
                name: statistics.median_low(values[name] for values in per_cycle)
                for name in names
                if name != "trace.overhead_ratio"
            }
            metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(base_walls)
            detail = {
                "untraced_cycles": len(base_walls),
                "traced_cycles": len(traced_walls),
                "spans": len(tracer.spans["start_ns"]),
                "functions": dict(sorted(per_cycle[0].items())),
            }
            spans_path = OUT / f"spans-{args.workload}.bin"
            tracer.write(str(spans_path))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            results, walls = run_cycles(cli, ops, args.seconds)
            metrics, detail = end_to_end(results, walls, setup)

        failures = []
        warm_failure = workload.check(warm, warmup[0], warmup[1])
        if warm_failure:
            failures.append(f"warm-up {warm.key}: {warm_failure}")
        verdicts = {}
        for j, code, text, _ in results:
            key = (j, code, text)
            if key not in verdicts:
                verdicts[key] = workload.check(ops[j], code, text)
            if verdicts[key]:
                failures.append(f"{ops[j].key}: {verdicts[key]}")
        result = {
            "attempted": len(results) + 1,
            "failed": len(failures),
            "failures": failures[:10],
            "metrics": metrics,
            "detail": detail,
        }
    finally:
        for path in inputs.iterdir():
            path.unlink()
        inputs.rmdir()
    Path(args.result).write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: start the child, collect its result and its peak memory.


def environment(args, attempted):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
    }


def commit():
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_child(args) -> tuple[dict, int]:
    """(child result, child peak RSS in KiB)."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", str(result_path)] + (["--tiny"] if args.tiny else [])
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen(argv, stdout=sys.stderr, cwd=ROOT)
    deadline = time.monotonic() + CHILD_DEADLINE_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"workload child ended with status {proc.returncode}")
    return json.loads(result_path.read_text()), usage.ru_maxrss


def run(args) -> dict:
    result, maxrss_kib = run_child(args)
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = maxrss_kib / 1024
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = result["detail"]
    print(f"workload {args.workload}  seed {args.seed}  ops {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if not args.trace:
        print(f"  failed_ops_ratio = {result['failed'] / result['attempted']:.6g} ratio  (failed / attempted)")
    for name, metric in final["metrics"].items():
        line = f"  {name} = {metric['value']:.6g} {metric['unit']}"
        if name == "latency_tail_ms":
            line += (f"  (p{detail['tail_percentile']} of {detail['latency_samples']} ops,"
                     f" {detail['tail_samples_beyond']} beyond)")
        print(line)
    if args.trace:
        print(f"  traced cycles {detail['traced_cycles']}, spans {detail['spans']} in {detail['spans_file']}")
        print("  all wrapped functions, first traced cycle:")
        for name, value in detail["functions"].items():
            if value:
                print(f"    {name} = {value:.6g}")
    print("env " + json.dumps(environment(args, result["attempted"])))
    return final


def smoke() -> int:
    """Every workload once, tiny sizes, both modes: all metrics present, with units."""
    problems = []
    for workload in ("exact-dense", "exact-sparse", "trials", "theory"):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.5, trace=trace, tiny=True)
            final = run(args)
            wanted = SPEC["per_layer" if trace else "end_to_end"]
            got = final["metrics"]
            for m in wanted:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or wrong unit")
                elif not isinstance(got[m["name"]]["value"], (int, float)):
                    problems.append(f"{workload} trace={trace}: {m['name']} is not a number")
            if not final["correct"]:
                problems.append(f"{workload} trace={trace}: {final['failed']} failed ops")
            if trace and abs(got["trace.self_sum_ratio"]["value"] - 1) > 0.05:
                problems.append(f"{workload}: self times do not add up to the op wall time")
    for problem in problems:
        print("SMOKE FAILED: " + problem)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("exact-dense", "exact-sparse", "trials", "theory"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if SPEC is None or not (ROOT / "src" / "matchcount" / "cli.py").is_file():
        print("error: run from a matchcount checkout (BENCHMARK.json and src/matchcount)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]
    for name in [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]:
        args.workload = name
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
