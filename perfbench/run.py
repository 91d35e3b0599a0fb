"""Benchmark for the fpqr package: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload study-dodge --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. With ``--trace 0`` the last line
of standard output carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics,
taken from a traced half of the run and compared with an untraced half. The
lines before it list the machine facts, every metric with its unit, and
every check. A fuller report, including the spans of the first traced pass,
is written to ``perfbench/out/``. See ``perfbench/README.md``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# At least two passes, so every run compares outputs across passes.
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_package():
    """Import fpqr from this checkout's ``src/``, refusing any other copy."""
    package = ROOT / "src" / "fpqr"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no fpqr package at {package}; run from a source checkout")
    if str(package.parent) not in sys.path:
        sys.path.insert(0, str(package.parent))
    import fpqr

    if Path(fpqr.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported fpqr from {fpqr.__file__}, not from {package}")
    return fpqr


def warm_up(fpqr):
    """Run each solver once on a tiny problem so lazy initialization is set-up work."""
    import warnings

    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 3))
    Y = X @ np.array([[1.0], [0.5], [0.0]]) + rng.standard_normal((12, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for metric in ("li", "dodge"):
            fpqr.fit_fpqr(X, Y, 1, metric=metric).predict(X)
        fpqr.fit_pls(X, Y, 1).predict(X)


def set_up(fpqr, workload_cls, seed, workdir):
    """Everything a user pays before the first op: inputs and solver warm-up."""
    workload = workload_cls()
    workload.setup(seed, workdir)
    warm_up(fpqr)
    return workload


def measure_setup(args):
    """Median wall time from interpreter start to ready, over fresh processes."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only", "--workdir", str(workdir),
        ]
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=SETUP_TIMEOUT_S,
            )
        finally:
            elapsed = time.perf_counter() - started
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(elapsed)
    return times


def traced_pass(workload, tracer):
    with tracer.installed():
        result = workload.run_pass(tracer)
    result.spans = tracer.take_spans()
    return result


def run_rounds(seconds, *runners):
    """Rounds of one pass per runner until the next round would end after
    ``seconds``; at least ``MIN_PASSES``. Returns one list of passes per runner."""
    rounds = [[] for _ in runners]
    started = time.perf_counter()
    while True:
        round_s = 0.0
        for runner, passes in zip(runners, rounds):
            passes.append(runner())
            round_s += passes[-1].seconds
        done = len(rounds[0]) >= MIN_PASSES
        if done and time.perf_counter() - started + round_s > seconds:
            return rounds


def blas_threads(np):
    """Thread count reported by the OpenBLAS numpy loaded, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in symbols:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def git_commit():
    """The checked-out commit read from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(args, np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": blas_threads(np),
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end_values(setup_times, passes):
    latencies = [op.seconds for p in passes for op in p.ops if op.ok]
    first = passes[0].ops
    quality_bd = [op.beta_distance for op in first if op.ok and op.beta_distance is not None]
    quality_cl = [op.check_loss for op in first if op.ok and op.check_loss is not None]
    tail_value, tail_percentile, tail_samples = stats.tail(latencies) if latencies else (0.0, 0.0, 0)
    values = {
        "setup_s": statistics.median(setup_times),
        "workload_s": statistics.median([p.seconds for p in passes]),
        "op_s.p50": statistics.median(latencies) if latencies else 0.0,
        "op_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality.beta_distance": stats.geometric_mean(quality_bd) if quality_bd else 0.0,
        "quality.check_loss": stats.geometric_mean(quality_cl) if quality_cl else 0.0,
    }
    notes = {
        "op_s.tail": f"p{tail_percentile:.2f} of {tail_samples} ops, "
        f"{tail_samples - round(tail_samples * tail_percentile / 100)} beyond it",
        "op_s.p50": f"median of {len(latencies)} ops",
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "workload_s": f"median of {len(passes)} passes",
    }
    return values, notes


def layer_values(passes):
    """Per-layer figures: the median over traced passes of each per-pass figure."""
    per_pass = []
    for result in passes:
        totals = spans.layer_totals(result.spans)
        counters = result.counters

        def get(name, key):
            return totals.get(name, {}).get(key, 0)

        requested = get("pls.extract", "requested")
        per_pass.append(
            {
                "qcov.calls": get("qcov.matrix", "calls"),
                "qcov.entries": get("qcov.matrix", "entries"),
                "qcov.self_s": get("qcov.matrix", "self_s"),
                "qcov.zeroed_entries": counters["ZeroVarianceWarning"] + counters["DiscordantSlopesWarning"],
                "quantreg.slope.calls": get("quantreg.slope", "calls"),
                "quantreg.slope.s": get("quantreg.slope", "s"),
                "quantreg.slope.iterations": get("quantreg.slope", "iterations"),
                "quantreg.inner.calls": get("quantreg.inner", "calls"),
                "quantreg.inner.s": get("quantreg.inner", "s"),
                "quantreg.inner.iterations": get("quantreg.inner", "iterations"),
                "linalg.leading.calls": get("linalg.leading", "calls"),
                "linalg.leading.s": get("linalg.leading", "s"),
                "linalg.center.s": get("linalg.center", "s"),
                "linalg.lstsq.s": get("linalg.lstsq", "s"),
                "pls.extract.self_s": get("pls.extract", "self_s"),
                "pls.components_ratio": get("pls.extract", "effective") / requested if requested else 0.0,
                "pls.back_project.s": get("pls.back_project", "s"),
                "pls.predict.s": get("pls.predict", "s"),
                "fpqr.fit.calls": get("fpqr.fit", "calls"),
                "fpqr.fit.self_s": get("fpqr.fit", "self_s"),
                "evaluate.generate.s": get("evaluate.generate", "s"),
                "evaluate.study.self_s": get("evaluate.study", "self_s"),
                "evaluate.excluded": counters["excluded"],
                "io.read.s": get("io.read", "s"),
                "io.read.bytes": get("io.read", "bytes"),
                "io.write.s": get("io.write", "s"),
                "io.write.bytes": get("io.write", "bytes"),
                "io.save_model.s": get("io.save_model", "s"),
                "io.load_model.s": get("io.load_model", "s"),
                "io.model.bytes": get("io.save_model", "bytes") + get("io.load_model", "bytes"),
                "cli.self_s": get("cli.main", "self_s"),
                "cli.exit_nonzero": get("cli.main", "exit_nonzero"),
                # Exact-count identity: slopes fitted versus slopes the cross
                # products needed, less the entries zeroed for zero variance.
                "slope_fits_expected": get("qcov.matrix", "slope_fits_expected")
                - counters["slope_fits_skipped"],
            }
        )
    return {name: statistics.median([p[name] for p in per_pass]) for name in per_pass[0]}


def compare_outputs(passes):
    return [
        f"pass {i} ({'traced' if result.spans else 'untraced'}) outputs differ from pass 0"
        for i, result in enumerate(passes)
        if result.outputs != passes[0].outputs
    ]


def run(args):
    fpqr = import_package()
    import numpy as np
    import scipy

    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workdir = Path(args.workdir) if args.workdir else OUT / f"work-{args.workload}-{os.getpid()}"
    if args.setup_only:
        set_up(fpqr, workload_cls, args.seed, workdir)
        return 0

    spec = load_spec()
    setup_times = [] if args.trace else measure_setup(args)
    try:
        workload = set_up(fpqr, workload_cls, args.seed, workdir)
        facts = machine_facts(args, np, scipy)
        tracer = spans.Tracer()
        failures = []
        if args.trace:
            # Untraced and traced passes alternate, so drift over the run
            # does not show up as tracing overhead.
            untraced, traced = run_rounds(
                args.seconds,
                lambda: workload.run_pass(tracer),
                lambda: traced_pass(workload, tracer),
            )
            if not tracer.all_restored():
                failures.append("a traced attribute was not restored after the traced passes")
            passes = untraced + traced
        else:
            (passes,) = run_rounds(args.seconds, lambda: workload.run_pass(tracer))
        failures += compare_outputs(passes)
        for result in passes:
            failures += result.failures
        check_failures, check_note = workload.check(
            passes[0], workloads.load_reference(HERE / "reference.json")
        )
        failures += check_failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if facts["blas_threads"] not in (None, BLAS_THREADS) or BLAS_THREADS > facts["nproc"]:
        failures.append(f"BLAS runs {facts['blas_threads']} threads, expected {BLAS_THREADS}")
    attempted = sum(len(p.ops) for p in passes)
    op_errors = [f"{op.label}: {op.error}" for p in passes for op in p.ops if not op.ok]
    failed = min(attempted, len(op_errors) + len(failures))
    failed_ratio = failed / attempted

    report = {
        "facts": facts,
        "checks": check_note,
        "failures": op_errors + failures,
        "pass_seconds": [p.seconds for p in passes],
        "op_seconds": [[op.seconds for op in p.ops] for p in passes],
        "ops": [[op.label, op.seconds, op.error, op.beta_distance, op.check_loss] for op in passes[0].ops],
    }
    if args.trace:
        values = layer_values(traced)
        untraced_s = statistics.median([p.seconds for p in untraced])
        traced_s = statistics.median([p.seconds for p in traced])
        values["failed_ratio"] = failed_ratio
        values["trace.overhead_s"] = traced_s - untraced_s
        expected = values.pop("slope_fits_expected")
        identity = values["quantreg.slope.calls"] == expected
        report["identity"] = {
            "quantreg.slope.calls": values["quantreg.slope.calls"],
            "expected": expected,
            "holds": identity,
        }
        report["absent_layers"] = tracer.absent_layers
        report["missing_hooks"] = sorted(tracer.missing)
        report["workload_s"] = {"untraced": untraced_s, "traced": traced_s}
        report["spans"] = [
            [s.name, s.start, s.end, s.parent, s.op, s.info] for s in traced[0].spans
        ]
        print(f"absent layers: {', '.join(tracer.absent_layers) or 'none'}")
        print(
            f"identity: quantreg.slope.calls={values['quantreg.slope.calls']} "
            f"expected={expected} ({'holds' if identity else 'does not hold'})"
        )
        print(f"workload_s untraced={untraced_s:.4f} s traced={traced_s:.4f} s")
        notes = {}
        metric_defs = spec["per_layer"]
    else:
        values, notes = end_to_end_values(setup_times, passes)
        report["setup_runs_s"] = setup_times
        metric_defs = spec["end_to_end"]
        print(f"failed_ratio = {failed_ratio:.6g} ratio ({failed} of {attempted} ops)")

    for key, value in facts.items():
        print(f"fact {key} = {value}")
    metrics = {}
    for definition in metric_defs:
        name, unit = definition["name"], definition["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {values[name]:.6g} {unit}{note}")
    print(f"check: {check_note}")
    for message in op_errors + failures:
        print(f"FAILED: {message}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    # Fixed before numpy loads, so every run and every set-up process uses
    # the same BLAS thread count.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
