"""sheafcast benchmark: three seeded workloads, end-to-end metrics and
per-layer spans.

    python3 benchmarks/bench.py [--seed N] [--seconds S]
        Runs every workload twice, each in its own process: untraced for
        the end-to-end metrics, then traced for the per-layer metrics.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1
        Runs one workload in this process. With --trace 0 the last line of
        output is a JSON object carrying every end-to-end metric, with
        --trace 1 every per-layer metric.

A run sets up its inputs from the seed (five times when untraced, for a
median set-up time, beside the median import time of five fresh
interpreters), then repeats the workload's timed chain as a closed
loop until the next pass would end after --seconds. Rates are items over
seconds summed across the run and `pipeline_s` is the mean pass: the
machine's speed drifts over seconds, and a sum over the whole run averages
the drift where a median of a few passes would follow it. Passes run back
to back after a full collection, as a fresh process would start them. A
traced run alternates untraced and traced passes, so tracing overhead is
measured under the same conditions; its per-layer figures are medians over
traced passes. See benchmarks/README.md for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOAD_NAMES = ("train-small", "pipeline-default", "forecast-long")
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5
# Imports of the harness and the package, timed in a fresh interpreter: a
# process imports once, and its first import may read cold files.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import layers, tracer, workloads; print(time.perf_counter() - t)")

# The bounded end-to-end metrics: every workload measures each of them.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside them. They carry no bound: some stage rates exist on some
# workloads only, every stage rate samples a few short stretches of a run
# and so follows the machine's speed drift more than `pipeline_s` does, the
# forecast errors move with the data each seed generates, and the failure
# ratio reads 0.
REPORTED = {
    "train_windows_per_s": "1/s",
    "simulate_records_per_s": "1/s",
    "prior_windows_per_s": "1/s",
    "forecast_windows_per_s": "1/s",
    "metrics_windows_per_s": "1/s",
    "heldout_mse": "normalized_units^2",
    "ood_mse": "normalized_units^2",
    "long_mse": "normalized_units^2",
    "fail_ratio": "ratio",
}


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------
def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _proc_field(path: str, key: str):
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout; None when the checkout is not itself the top
    of a git repository."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_info(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        blas = {}
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def _median(values):
    return statistics.median(values) if values else None


def timed_loop(wl, inputs, work: Path, seconds: float, tracer=None) -> list:
    """Closed loop of passes; with a tracer, every second pass is traced."""
    import layers
    from tracer import root_coverage

    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        pass_dir = work / f"pass{len(passes)}"
        gc.collect()
        if traced:
            tracer.reset()
            layers.install(tracer)
            tracer.watch_gc()
        t0 = time.perf_counter()
        res = wl.chain(inputs, pass_dir)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        wl.check(inputs, pass_dir, res)
        shutil.rmtree(pass_dir, ignore_errors=True)
        record = {"traced": traced, "chain_s": t1 - t0, "result": res,
                  "wall_s": time.perf_counter() - t0}
        if traced:
            record["layers"] = layers.pass_metrics(tracer)
            record["durations"] = layers.call_durations(tracer)
            record["unattributed_s"] = (t1 - t0) - root_coverage(tracer.spans, t0, t1)
        passes.append(record)
        if res.failures:
            break
        typical = _median([p["wall_s"] for p in passes])
        # a traced run needs one untraced and one traced pass at least
        if time.perf_counter() - start + typical > seconds and \
                (tracer is None or len(passes) >= 2):
            break
    return passes


def _rate(work) -> float:
    """Items per second over every (items, seconds) sample."""
    return sum(n for n, _ in work) / sum(s for _, s in work)


def rates(passes) -> dict:
    """Each rate the timed chain measures, over the whole run."""
    out = defaultdict(list)
    for p in passes:
        for name, sample in p["result"].work.items():
            out[name].append(sample)
    return {name: _rate(samples) for name, samples in out.items()}


def import_times() -> list:
    """Import time of the harness and the package, once per fresh
    interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(passes, setup_s: list, import_s: list) -> dict:
    out = rates(passes)
    out["setup_s"] = _median(import_s) + _median(setup_s)
    out["pipeline_s"] = statistics.fmean(p["chain_s"] for p in passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {k: out[k] for k in END_TO_END if k in out}


def per_layer(passes) -> dict:
    import layers

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: _median([p["layers"][name] for p in traced])
           for name in traced[0]["layers"]}
    pooled = defaultdict(list)
    for p in traced:
        for name, durations in p["durations"].items():
            pooled[name] += durations
    out.update(layers.per_call_metrics(pooled))
    traced_s = _median([p["chain_s"] for p in traced])
    plain_s = _median([p["chain_s"] for p in plain])
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    out["trace.unattributed_s"] = _median([p["unattributed_s"] for p in traced])
    out["trace.unattributed_ratio"] = out["trace.unattributed_s"] / traced_s
    out["trace.traced_passes"] = len(traced)
    return out


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "sheafcast" / "__init__.py").is_file():
        print(f"bench: no sheafcast package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        import_s = [] if trace else import_times()
        setup_s = []
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            inputs = wl.setup(seed, work / "inputs")
            setup_s.append(time.perf_counter() - start)
        passes = timed_loop(wl, inputs, work, seconds, tracer)
        shapes = wl.shapes(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass            # another run still uses it

    attempted = sum(p["result"].attempted for p in passes)
    failures = [f for p in passes for f in p["result"].failures]
    ok = [p for p in passes if not p["result"].failures]
    reported = {"fail_ratio": len(failures) / attempted if attempted else 1.0}
    if ok:
        reported.update(ok[0]["result"].values)
        reported.update({k: v for k, v in rates(ok).items() if k in REPORTED})
    if trace:
        metrics = per_layer(passes) if ok else {}
        units = layers.metric_units()
    else:
        metrics = end_to_end(ok, setup_s, import_s) if ok else {}
        units = END_TO_END

    print(f"bench: workload={name} seed={seed} trace={trace} passes={len(passes)} "
          f"attempted={attempted} failed={len(failures)}")
    for key, value in metrics.items():
        print(f"  {key:34s} {_fmt(value):>14s} {units[key]}")
    for key, value in reported.items():
        print(f"  {key:34s} {_fmt(value):>14s} {REPORTED[key]}")
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    detail = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "passes": [{"traced": p["traced"], "chain_s": p["chain_s"],
                          "stage_s": p["result"].stage_s} for p in passes],
              "setup_s": setup_s, "import_s": import_s,
              "shapes": shapes, "reported": reported, "machine": machine_info(seed)}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, each in its own process
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} trace={trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return "\n".join(lines[:-1]), detail, json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    ok = True
    for name in WORKLOAD_NAMES:
        runs = {}
        for trace in (0, 1):
            text, detail, result = _child(name, seed, seconds, trace)
            print("\n".join(line for line in text.splitlines()
                            if not line.startswith("detail ")))
            runs[trace] = (detail, result)
            ok &= result["correct"]
        # training and scoring are deterministic: a second run of the same
        # seed must reproduce every quality figure exactly
        quality = {k: v for k, v in runs[0][0]["reported"].items() if k.endswith("_mse")}
        again = {k: runs[1][0]["reported"].get(k) for k in quality}
        same = quality == again
        ok &= same
        print(f"same-seed check {name}: {'ok' if same else 'MISMATCH'} {quality} vs {again}")
    print(json.dumps({"correct": ok, "workloads": list(WORKLOAD_NAMES)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, "
                             "each in its own process, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    return run_all(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
