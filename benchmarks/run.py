#!/usr/bin/env python3
"""Benchmark of the tljones command line, driven in-process.

    python3 benchmarks/run.py --workload pathmodel-wide --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all --seed 1            # every workload, one fresh process each
    python3 benchmarks/run.py --all --seed 1 --smoke --seconds 1   # tiny sizes, for tests

One client in one process sends `tljones.cli.main(argv)` calls in a closed
loop (the next call starts when the previous one returns), with stdout
captured. The timed phase runs whole rounds of the workload's mix until
--seconds have passed. Outputs are checked afterwards, outside the timed
phase; any failed check makes `correct` false and the exit status 1.

--trace 0 reports the end-to-end metrics. --trace 1 repeats the same
invocations with layer spans installed from outside the library
(tracer.py) and reports the per-layer metrics plus the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit status 2 means the benchmark could not run at all (e.g. no src/).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402  (sibling modules, found through BENCH_DIR)
from tracer import CHECK_SUITES, Tracer  # noqa: E402

BLAS_THREADS = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TRACE_DIR = ROOT / ".bench_traces"

END_TO_END = {
    "evals_per_s": "1/s",
    "eval_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "pathmodel.enumerate_paths.s": "s",
    "pathmodel.enumerate_paths.calls": "count",
    "pathmodel.braid_gen_unitary.s": "s",
    "pathmodel.braid_gen_unitary.calls": "count",
    "pathmodel.global_gate.self_s": "s",
    "pathmodel.dim_max": "count",
    "pathmodel.gate_flops": "flop",
    "pathmodel.gate_gflops_per_s": "GFLOP/s",
    "pathmodel.gate_bytes_peak": "B",
    "evaluation.weighted_trace.s": "s",
    "evaluation.jones_value_exact.calls": "count",
    "tl.jones_rep.s": "s",
    "tl.markov_trace.s": "s",
    "tl.stack_matchings.calls": "count",
    "tl.stack_matchings.s": "s",
    "tl.image_terms_max": "count",
    "laurent.mul.calls": "count",
    "laurent.div_exact.calls": "count",
    "laurent.div_exact.fail_frac": "ratio",
    "sampling.sample_jones_value.self_s": "s",
    "sampling.bit_stream.s": "s",
    "sampling.bit_stream.calls": "count",
    "sampling.shots": "count",
    "sampling.shots_per_s": "1/s",
    "sampling.forced_frac": "ratio",
    **{f"checks.{suite}.s": "s" for suite in CHECK_SUITES},
    "checks.cases": "count",
    "trace_overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit status 2, no result line)."""


@dataclasses.dataclass
class Call:
    invocation: wl.Invocation
    rc: object
    stdout: str
    seconds: float
    errors: list = dataclasses.field(default_factory=list)


# ------------------------------------------------------------------- program

def limit_blas_threads() -> int:
    """Pin BLAS threads (<= nproc) before numpy is first imported."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_cli():
    """tljones.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tljones" / "cli.py").is_file():
        raise BenchError(f"no tljones sources under {src}")
    sys.path.insert(0, str(src))
    import tljones
    import tljones.cli

    if not Path(tljones.__file__).resolve().is_relative_to(src):
        raise BenchError(f"imported tljones from {tljones.__file__}, not from {src}")
    return tljones.cli


def invoke(cli, inv: wl.Invocation) -> Call:
    """One CLI call through the module attribute, so a traced wrapper is seen."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
        except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return Call(inv, rc, out.getvalue(), seconds)


def timed_phase(cli, rounds, seconds: float) -> tuple[list[Call], float]:
    """Whole rounds of the mix, back to back, until `seconds` have passed."""
    calls = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        calls += [invoke(cli, inv) for inv in next(rounds)]
    return calls, time.perf_counter() - start


def traced_phase(cli, rounds, seconds: float):
    """Each invocation untraced and then at once traced, so that both runs of
    a pair see the same machine and their ratio is the tracing overhead."""
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for inv in next(rounds):
            untraced.append(invoke(cli, inv))
            tracer.invocation = len(traced)
            tracer.install()
            try:
                traced.append(invoke(cli, inv))
            finally:
                tracer.uninstall()
    return untraced, traced, tracer


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import, make inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return times


# ---------------------------------------------------------------- run record

def blas_record(threads_set: int) -> dict:
    import numpy as np

    record = {"threads_requested": threads_set}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    record["threads"] = openblas_threads()
    return record


def openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS itself, when it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_identity() -> dict:
    """The git commit when there is one, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args, threads_set: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(threads_set),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **source_identity(),
    }


# ------------------------------------------------------------------- metrics

def end_to_end_metrics(timed: list[Call], elapsed: float, setup: list[float]) -> dict:
    ok = sum(1 for call in timed if not call.errors)
    return {
        "evals_per_s": ok / elapsed,
        "eval_p50_s": statistics.median(call.seconds for call in timed),
        "setup_s": statistics.median(setup),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def layer_metrics(tracer, untraced: list[Call], traced: list[Call]) -> dict:
    spans = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
    for span in tracer.spans:
        entry = spans[span.label]
        entry[0] += 1
        entry[1] += span.seconds
        entry[2] += span.self_s
    for label, (calls, seconds) in tracer.leaf_totals().items():
        spans[label][0] += calls
        spans[label][1] += seconds
        spans[label][2] += seconds
    gauges, counts = tracer.gauges, tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        label, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            out[name] = spans[label][{"calls": 0, "s": 1, "self_s": 2}[field]]
    gate_self = spans["pathmodel.global_gate"][2]
    draw_self = spans["sampling.sample_jones_value"][2]
    out.update({
        "pathmodel.dim_max": gauges["pathmodel.dim_max"],
        "pathmodel.gate_flops": gauges["pathmodel.gate_flops"],
        "pathmodel.gate_gflops_per_s": ratio(gauges["pathmodel.gate_flops"], gate_self) / 1e9,
        "pathmodel.gate_bytes_peak": gauges["pathmodel.gate_bytes_peak"],
        "tl.image_terms_max": gauges["tl.image_terms_max"],
        "laurent.mul.calls": counts["laurent.mul.calls"],
        "laurent.div_exact.calls": counts["laurent.div_exact.calls"],
        "laurent.div_exact.fail_frac": ratio(counts["laurent.div_exact.raised"], counts["laurent.div_exact.calls"]),
        "sampling.shots": gauges["sampling.shots"],
        "sampling.shots_per_s": ratio(gauges["sampling.shots"], draw_self),
        "sampling.forced_frac": ratio(gauges["sampling.forced"], gauges["sampling.walks"]),
        "checks.cases": gauges["checks.cases"],
        "trace_overhead_frac": ratio(sum(c.seconds for c in traced), sum(c.seconds for c in untraced)) - 1,
    })
    for name in PER_LAYER:
        out.setdefault(name, 0)
    return out


def accounting_gaps(tracer, traced: list[Call]) -> list[float]:
    """Per invocation: wall - (sum of span self times + leaf times + untraced time).

    Untraced time is the wall time outside the root cli.main span, so a
    correct tracer leaves a gap of zero up to float rounding.
    """
    self_total = collections.defaultdict(float)
    root = {}
    for span in tracer.spans:
        self_total[span.invocation] += span.self_s
        if span.parent is None:
            root[span.invocation] = span.seconds
    gaps = []
    for index, call in enumerate(traced):
        leaves = sum(seconds for _, seconds in tracer.leaf_totals(index).values())
        untraced = call.seconds - root.get(index, 0.0)
        gaps.append(call.seconds - (self_total[index] + leaves + untraced))
    return gaps


# ---------------------------------------------------------------------- runs

def check_calls(workload: wl.Workload, calls: list[Call], thorough: bool = False) -> None:
    for call in calls:
        call.errors = wl.check_output(workload, call.invocation, call.rc, call.stdout, thorough)


def same_output(call: Call, reference: Call) -> list[str]:
    if (call.rc, call.stdout) != (reference.rc, reference.stdout):
        return [f"stdout differs from an earlier identical invocation: {list(call.invocation.argv)[:1]}"]
    return []


def run_workload(args) -> dict:
    threads_set = limit_blas_threads()
    cli = import_cli()
    workload = wl.WORKLOADS[args.workload]
    rng = random.Random(f"{workload.name}/{args.seed}")
    warm = invoke(cli, workload.warmup(rng, args.smoke))
    rounds = workload.rounds(rng, args.smoke)
    if args.setup_probe:
        next(rounds)
        return {}
    # The first call at each size pays for fresh allocator and BLAS buffers
    # (up to 5x on a small path-model call), so one untimed round goes first.
    warm_round = next(rounds)
    for inv in warm_round:
        invoke(cli, inv)

    traced, tracer = [], None
    if args.trace:
        timed, traced, tracer = traced_phase(cli, rounds, args.seconds)
    else:
        setup = measure_setup(args)
        timed, elapsed = timed_phase(cli, rounds, args.seconds)
    repeat = invoke(cli, timed[0].invocation)  # the CLI must be byte-for-byte deterministic

    check_calls(workload, [warm, *timed[:len(warm_round)]], thorough=True)
    check_calls(workload, timed[len(warm_round):])
    repeat.errors = same_output(repeat, timed[0])
    for call, reference in zip(traced, timed):
        call.errors = same_output(call, reference)
    calls = [warm, *timed, repeat, *traced]
    run_errors = []
    if tracer is not None:
        worst = max((abs(gap) for gap in accounting_gaps(tracer, traced)), default=0.0)
        if worst > 1e-6:
            run_errors.append(f"span self times miss the invocation wall time by {worst:.3e} s")
        for name in sorted(tracer.missing):  # a renamed function reads as 0, not as a wrong output
            print(f"warning: traced function not found: {name}", file=sys.stderr)

    failed = [call for call in calls if call.errors]
    for call in failed[:5]:
        print(f"FAILED {' '.join(call.invocation.argv)[:160]}: {'; '.join(call.errors)}", file=sys.stderr)
    for error in run_errors:
        print(f"FAILED {error}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, timed, traced)
        units = PER_LAYER
        write_trace(args, tracer)
        top = sorted(((label, s) for label, s in self_times(tracer).items()), key=lambda kv: -kv[1])
        print("largest self times: " + ", ".join(f"{label} {s:.3f}s" for label, s in top[:6]))
    else:
        metrics = end_to_end_metrics(timed, elapsed, setup)
        units = END_TO_END
        walls = sorted(call.seconds for call in timed)
        print(f"timed phase: {len(timed)} invocations in {elapsed:.3f} s; "
              f"failed_frac {len(failed) / len(calls):.4f} ratio; "
              f"wall per invocation min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, "
              f"max {walls[-1]:.4f} s (too few samples for a tail percentile); "
              f"set-up probes {', '.join(f'{s:.3f}' for s in setup)} s")
    print("run_record " + json.dumps(run_record(args, threads_set), sort_keys=True))
    return {
        "correct": not failed and not run_errors,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def self_times(tracer) -> dict[str, float]:
    totals = collections.defaultdict(float)
    for span in tracer.spans:
        totals[span.label] += span.self_s
    for label, (_, seconds) in tracer.leaf_totals().items():
        totals[label] += seconds
    return totals


def write_trace(args, tracer) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    leaves = [{"invocation": inv, "label": label, "calls": calls, "seconds": seconds}
              for (inv, label), (calls, seconds) in sorted(tracer.leaves.items())]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.span_records(), "leaves": leaves, "counts": dict(tracer.counts),
                   "gauges": dict(tracer.gauges)}, handle)


def run_all(args) -> int:
    """Every workload in its own fresh process; prints one table and a JSON line."""
    results, status = {}, 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        results[name] = result
        status = status or (0 if proc.returncode == 0 and result["correct"] else 1)
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:40s} {entry['value']:.6g} {entry['unit']}")
        if not args.trace and result["attempted"]:
            print(f"   {'failed_frac':40s} {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(results, sort_keys=True))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload or --all")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        result = run_workload(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return 0
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
