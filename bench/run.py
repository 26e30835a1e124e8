#!/usr/bin/env python3
"""Benchmark of sgdstab: four oracle-checked workloads and a traced per-layer run.

    python3 bench/run.py --workload moments --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --seed 3          # every workload, each in a fresh process

One run builds its inputs from --seed, sets up several times, repeats the
workload's closed loop for about --seconds, checks every output against
the oracles in oracles.py and every repetition against the first, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, timed in reference units against speedometer.py; with
--trace 1 they are its per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speedometer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("analyze-dense", "analyze-operator", "moments", "montecarlo")
SETUP_PASSES = 5
MIN_PASSES = 3  # per run; each half of a traced run has at least MIN_TRACED_PASSES
MIN_TRACED_PASSES = 2
# On a shared 2-core machine, two BLAS threads made one d=96 operator solve vary
# between 3.7 and 6.4 s; one thread ran it in 3.2 to 4.8 s.  The matrices here
# are at most 1024 wide, so one thread also loses little speed.
BLAS_THREADS = 1

# Throughput of each kind of operation, printed for information next to the JSON result.
KIND_METRICS = {
    "analysis": ("analyses_per_s", "1/s"),
    "moment": ("moment_steps_per_s", "1/s"),
    "limit": ("limit_solves_per_s", "1/s"),
    "sgd": ("sgd_replicate_steps_per_s", "1/s"),
    "mixture": ("mixture_replicate_steps_per_s", "1/s"),
    "bisection": ("empirical_threshold_s", "s"),
}


def cap_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads (at most the usable cores); must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def pin_to_one_cpu() -> int:
    """Run on the last usable CPU only, so that the speedometer samples the CPU the work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fresh_import_span() -> tuple[float, float]:
    """perf_counter before and after importing sgdstab in a new interpreter, as each CLI call pays it.

    perf_counter is the system's monotonic clock, so the child's readings are on the caller's time line."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import sgdstab; print(t, time.perf_counter())"
    child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True, timeout=120)
    start, end = child.stdout.split()
    return float(start), float(end)


def import_package() -> tuple[float, float]:
    """Import sgdstab from this checkout's src/; perf_counter before and after."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import sgdstab

    end = perf_counter()
    if Path(sgdstab.__file__).resolve().parent != ROOT / "src" / "sgdstab":
        raise ImportError(f"sgdstab was imported from {sgdstab.__file__}, not from this checkout")
    return start, end


class PassResult:
    def __init__(self):
        self.times: dict[str, float] = {}
        self.spans: dict[str, tuple[float, float]] = {}  # perf_counter at the start and end of each call
        self.digests: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self.results: dict[str, tuple] = {}
        self.elapsed = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


def run_pass(ops, tracer=None, keep=False) -> PassResult:
    """One round of the operations."""
    result = PassResult()
    pass_start = perf_counter()
    for op in ops:
        start = perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    value = op.call()
            else:
                value = op.call()
        except Exception as exc:  # a failed call is counted and reported; the loop goes on
            result.errors[op.name] = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        result.times[op.name] = end - start
        result.spans[op.name] = (start, end)
        if op.name in result.errors:
            continue
        files = op.output(value)
        result.digests[op.name] = hashlib.sha256(b"".join(k.encode() + b"\0" + files[k] for k in sorted(files))).hexdigest()
        if keep:
            result.results[op.name] = (value, files)
    result.elapsed = perf_counter() - pass_start
    return result


def run_passes(ops, budget: float, min_passes: int, tracer=None, first_index: int = 0) -> list[PassResult]:
    """Repeat the closed loop until another pass would end after ``budget`` seconds."""
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_index = first_index + len(passes)
        passes.append(run_pass(ops, tracer))
        typical = statistics.median(p.elapsed for p in passes)
        if len(passes) >= min_passes and perf_counter() - start + typical > budget:
            return passes


def evaluate(ops, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): oracle checks on the first pass, digests on every pass.

    The first pass must have been run with ``keep=True``."""
    first = passes[0]
    problems = {}
    for op in ops:
        if op.name in first.errors:
            continue
        value, files = first.results[op.name]
        try:
            found = op.check(value, files)
        except (ValueError, KeyError, IndexError) as exc:  # malformed output
            found = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        if found:
            problems[op.name] = found
    messages = [f"FAIL {name}: {p}" for name, found in problems.items() for p in found]
    failed = 0
    for index, result in enumerate(passes):
        for op in ops:
            if op.name in result.errors:
                messages.append(f"FAIL {op.name} (pass {index}): {result.errors[op.name]}")
            elif result.digests[op.name] != first.digests.get(op.name):
                messages.append(f"FAIL {op.name} (pass {index}): output differs from the first pass")
            elif op.name not in problems:
                continue
            failed += 1
    return len(passes) * len(ops), failed, messages


def op_reference_units(passes, to_units) -> dict[str, list[float]]:
    """Each operation's time in every pass, in probe lengths of the speedometer (see speedometer.py)."""
    return {name: [to_units(p.spans[name]) for p in passes] for name in passes[0].spans}


def typical_reference_units(ops, units) -> float:
    """One typical pass in probe lengths: the sum over operations of each one's median over the passes."""
    return sum(statistics.median(units[op.name]) for op in ops)


def typical_seconds(ops, passes) -> float:
    """Seconds of one typical pass: the sum over operations of each one's median over the passes."""
    return sum(statistics.median(p.times[op.name] for p in passes) for op in ops)


def kind_metrics(ops, passes) -> dict[str, tuple[float, str]]:
    out = {}
    for kind, (name, unit) in KIND_METRICS.items():
        members = [op for op in ops if op.kind == kind]
        if not members:
            continue
        seconds = typical_seconds(members, passes)
        work = sum(op.work for op in members)
        out[name] = (seconds / work if unit == "s" else work / seconds, unit)
    return out


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def run_workload(args, nproc: int, import_span, declared: dict, workdir: Path, meter) -> dict:
    """One workload; ``meter`` is the running speedometer of an untraced run, None in a traced one."""
    import tracing
    from workloads import WORKLOADS as CLASSES

    start = perf_counter()
    workload = CLASSES[args.workload](args.seed, workdir)
    oracle_s = perf_counter() - start
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    setup_spans = []
    for index in range(SETUP_PASSES):
        start = perf_counter()
        if tracer is None:
            workload.setup_pass()
        else:
            tracer.pass_index = -1 - index
            with tracing.instrumented(tracer):
                workload.setup_pass()
        setup_spans.append((start, perf_counter()))
    import_spans = [import_span] + ([] if tracer else [fresh_import_span() for _ in range(SETUP_PASSES - 1)])
    ops = workload.ops()
    # A full-size warm-up pass: not timed, but checked like every other pass.
    checked = [run_pass(ops, keep=True)]
    if tracer is None:
        passes = run_passes(ops, args.seconds, MIN_PASSES)
        samples = meter.stop()
        starts = [start for start, _ in samples]

        def to_units(span):
            return speedometer.reference_units(*span, samples, starts)

        units = op_reference_units(passes, to_units)
    else:
        untraced = run_passes(ops, args.seconds / 2, MIN_TRACED_PASSES)
        with tracing.instrumented(tracer):
            timed = run_passes(ops, args.seconds / 2, MIN_TRACED_PASSES, tracer, first_index=len(untraced))
        alloc_tracer = tracing.Tracer(tracer.run_id, track_alloc=True)
        with tracing.instrumented(alloc_tracer):
            checked.append(run_pass(ops, alloc_tracer))
        passes = untraced + timed
    attempted, failed, messages = evaluate(ops, checked + passes)
    for line in messages:
        print(line)
    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} timed passes of {len(ops)} operations, "
        f"{failed} of {attempted} operations failed; oracle set-up {oracle_s:.3f} s (untimed)"
    )
    print("pass seconds " + " ".join(f"{p.seconds:.3f}" for p in passes) + f" after warm-up {checked[0].seconds:.3f}")
    for op in ops:
        line = f"operation {op.name!r} median {statistics.median(p.times[op.name] for p in passes):.4f} s"
        if tracer is None:
            line += f", {statistics.median(units[op.name]):.1f} ref"
        print(line)
    print("set-up seconds " + " ".join(f"{b - a:.3f}" for a, b in setup_spans))
    print("import seconds " + " ".join(f"{b - a:.3f}" for a, b in import_spans))
    if tracer is None:
        setup_units = statistics.median(map(to_units, import_spans)) + statistics.median(map(to_units, setup_spans))
        values = {
            "setup_s": speedometer.PROBE_SECONDS * setup_units,
            "wall_ref": typical_reference_units(ops, units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info = {
            "setup_seconds_as_measured": (statistics.median(b - a for a, b in import_spans) + statistics.median(b - a for a, b in setup_spans), "s"),
            "wall_s": (typical_seconds(ops, passes), "s"),
            "setup_ref": (setup_units, "ref"),
            "speedometer_samples": (len(samples), "count"),
            "failed_frac": (failed / attempted, "frac"),
            **kind_metrics(ops, passes),
        }
    else:
        values = tracing.layer_metrics(tracer, range(len(untraced), len(untraced) + len(timed)))
        values["instances.save_instance.s"] = tracing.layer_metrics(tracer, range(-SETUP_PASSES, 0))["instances.save_instance.s"]
        values.update(tracing.alloc_peaks_mb(alloc_tracer))
        values.update(workload.probes())
        values["tracing.overhead_s"] = typical_seconds(ops, timed) - typical_seconds(ops, untraced)
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json")
        info = {}
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in declared[section]:
        # A layer that does no work on this workload, or a probe that belongs to another one, reads 0.
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    for name, (value, unit) in info.items():
        print(f"{name} {value:.6g} {unit}")
    print("environment " + json.dumps(environment(args.seed, nproc)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    nproc = cap_blas_threads()
    pin_to_one_cpu()
    workdir = BENCH_DIR / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    meter = None
    try:
        # An untraced run samples the CPU's speed from before the import to the end of the timed passes.
        meter = None if args.trace else speedometer.Speedometer(workdir)
        try:
            declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            import_span = import_package()
        except (OSError, ImportError, ValueError) as exc:
            print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
            return 2
        result = run_workload(args, nproc, import_span, declared, workdir, meter)
    finally:
        if meter is not None:
            meter.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
