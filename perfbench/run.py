"""cctuner benchmark: one workload, one seed, one measured window.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,tune,score} --seed N \
        --seconds S --trace {0,1}

The program under test is imported from ./src; nothing is installed.
BLAS is pinned to one thread before numpy loads. Each op is prepared and
checked outside its timing (see workloads.py). With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, in which
blocks of traced and untraced ops alternate so that the tracing overhead
is measured in the same process. Earlier lines are a human-readable
report: machine, metric aliases with sample counts, and the layer split.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib.util
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Separate processes that each time start-up to the first op.
SETUP_REPEATS = 5
READY = "ready"



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "tune", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    import numpy as np

    from cctuner import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "kernel_backend": _kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Inclusive-method quantile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def probe_setups(args):
    """Median wall time, in separate processes, from start to the first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times), times


def measure(workload_name, seed, seconds, trace, sizes, out_dir=None):
    """Set up one workload, run it for `seconds`, and return its results.

    Returns a dict with attempted, failed, op latencies in seconds, units,
    the workload's extras, and the per-layer metrics when traced.
    """
    import workloads
    import tracing

    work = workloads.WORKLOADS[workload_name](ROOT, seed, sizes)
    work.warm_up()
    tracer = tracing.Tracer() if trace else None

    attempted = failed = units = 0
    op_s = []
    blocks = {}  # block index -> [traced?, op seconds, ops, units]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inputs = work.prepare(i)
        block = i // work.period
        traced = tracer is not None and block % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = work.op(inputs)
        except Exception:
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        try:
            n_units, n_failed = (
                (work.units(inputs), work.units(inputs)) if out is None else work.check(inputs, out)
            )
        except Exception:
            traceback.print_exc()
            n_units = n_failed = work.units(inputs)
        attempted += n_units
        failed += n_failed
        entry = blocks.setdefault(block, [traced, 0.0, 0, 0])
        entry[1] += dt
        entry[2] += 1
        if out is not None:
            op_s.append(dt)
            units += n_units
            entry[3] += n_units
        i += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "op_s": op_s,
        "units": units,
        "extra": work.extra(),
    }
    if tracer is not None:
        # Overhead over whole pairs of a traced block and the untraced block
        # after it; both hold one cycle of the workload's input kinds.
        pairs = [b for b in blocks if b % 2 == 0 and b + 1 in blocks
                 and blocks[b][2] == blocks[b + 1][2] == work.period]
        n_ops = len(pairs) * work.period
        traced_ms = 1e3 * sum(blocks[b][1] for b in pairs) / n_ops if n_ops else 0.0
        plain_ms = 1e3 * sum(blocks[b + 1][1] for b in pairs) / n_ops if n_ops else 0.0
        traced = [v for v in blocks.values() if v[0]]
        result["layers"] = tracing.layer_metrics(
            tracer, sum(v[3] for v in traced), traced_ms, plain_ms
        )
        result["split"] = tracing.time_split(tracer, sum(v[1] for v in traced))
        result["absent"] = list(tracer.absent)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{workload_name}-{seed}.json"
            path.write_text(json.dumps(tracing.spans_json(tracer)))
            result["spans_file"] = str(path)
    return result


def end_to_end(result, setup_s):
    """The gated metrics: the `end_to_end` list of BENCHMARK.json."""
    ms = [1e3 * t for t in result["op_s"]]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (statistics.median(ms) if ms else 0.0, "ms"),
    }


# Per workload: printed name of its op latency and of its throughput.
NAMES = {
    "sweep": ("sweep_call_ms", "sweep_cells_per_s"),
    "tune": ("tune_ms", "tune_calls_per_s"),
    "score": ("score_ms", "score_calls_per_s"),
}


def report(args, result, metrics, setup_times):
    """Human-readable lines that precede the JSON result."""
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if setup_times:
        print(f"  setup_s is the median of {len(setup_times)} processes: "
              + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    op_s = result["op_s"]
    if not args.trace and op_s:
        ms = [1e3 * t for t in op_s]
        n = len(ms)
        beyond = n - math.ceil(0.9 * n)
        short = "" if beyond >= 10 else ", fewer than the ten a tail percentile needs"
        lat, rate = NAMES[args.workload]
        print(f"  {lat}_p50 = {statistics.median(ms):.6g} ms (op_ms_p50, n={n} ops)")
        print(f"  {lat}_p90 = {percentile(ms, 0.9):.6g} ms (n={n} ops, {beyond} beyond{short})")
        print(f"  {rate} = {result['units'] / sum(op_s):.6g} 1/s "
              f"({result['units']} units in {sum(op_s):.4f} s of timed ops)")
        print("  op ms min/p25/p50/p75/p90/max: " + " / ".join(
            f"{v:.1f}" for v in (min(ms), percentile(ms, 0.25), statistics.median(ms),
                                 percentile(ms, 0.75), percentile(ms, 0.9), max(ms))))
    attempted = result["attempted"]
    print(f"  failed_share = {result['failed'] / attempted if attempted else 1.0:.6g} "
          f"({result['failed']} of {attempted} units)")
    for name, text in result["extra"].items():
        print(f"  {name} = {text}")
    if "split" in result:
        print("  layer split of traced op time (s, share):")
        for label, sec, share in result["split"]:
            print(f"    {label:<38} {sec:10.4f} {share:7.1%}")
        print(f"  absent wrap points: {', '.join(result['absent']) or 'none'}")
        if "spans_file" in result:
            print(f"  spans written to {result['spans_file']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cctuner" / "__init__.py").is_file():
        print(f"error: no cctuner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    if args.setup_probe:
        work = workloads.WORKLOADS[args.workload](ROOT, args.seed, sizes)
        work.warm_up()
        print(READY, flush=True)
        return 0

    # Set-up is an end-to-end metric, so a traced run does not probe it.
    setup_s, setup_times = probe_setups(args) if not args.trace else (0.0, [])
    print("machine " + json.dumps(machine()))
    result = measure(args.workload, args.seed, args.seconds, args.trace, sizes,
                     out_dir=OUT if args.trace else None)
    if args.trace:
        from tracing import LAYER_METRICS

        metrics = {name: (result["layers"][name], unit) for name, unit, _ in LAYER_METRICS}
    else:
        metrics = end_to_end(result, setup_s)
    report(args, result, metrics, setup_times)
    attempted = max(result["attempted"], 1)
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
