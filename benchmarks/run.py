"""Run one ptlab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload certify_dense --seed 1 --seconds 20 --trace 0

Run it from the root of a ptlab checkout; it imports ``ptlab`` from
``src/`` there and exits with code 2 when that is missing. Human-readable
lines (environment, every metric with its unit and sample count, every
oracle's pass/fail tally, error accounting) come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced phase that follows an
untraced one; each takes half of ``--seconds``. See ``benchmarks/README.md``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse
import json
import os

# One BLAS thread. On a 2-vCPU host the second OpenBLAS thread spins while
# the main thread works; that costs no speed on these matrix sizes but lets
# item latency swing by up to 1.7x with the load of the host. Set before
# numpy is imported; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 4  # extra set-ups in child processes; setup_s is the median of these and our own
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("sweep2x2", "certify_small", "certify_dense", "count_table"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_checkout():
    """Put the checkout's ``src`` first on the path and make sure ptlab comes from there."""
    init = ROOT / "src" / "ptlab" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run the benchmark from a ptlab checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import ptlab

    if Path(ptlab.__file__).resolve() != init.resolve():
        print(f"error: imported ptlab from {ptlab.__file__}, not from {init}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"vendor": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy as np
    import scipy

    return {
        "git_commit": git_commit(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "loop": "closed, 1 client, 1 process, 1 BLAS thread",
    }


def extra_setups(args) -> list:
    """Time SETUP_RUNS fresh set-ups, each in its own interpreter, one at a time,
    each divided by the host slowdown measured right after it."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def print_metric(name, value, unit, note=""):
    print(f"metric {name:<46} {value:>14.6g} {unit:<11} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    import numpy as np
    from ptbench import runner, tracing
    from ptbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first_items = runner.set_up(workload, args.seed)
    setup_s = time.perf_counter() - _START
    setup_s /= runner.setup_slowdown()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"# ptbench {args.workload}: {workload.why}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.measure(workload, args.seed, seconds, first_items=first_items)
    phases = [untraced]
    if args.trace:
        tracer, sizer = tracing.Tracer(), None
        with tracer:
            traced = runner.measure(workload, args.seed, seconds, first_cycle=untraced.next_cycle)
        sizing = runner.Phase()
        if workload.sizing:
            sizer = tracing.Tracer()
            with sizer:
                sizing.records = [runner.run_item(workload, item) for item in workload.sizing(args.seed)]
        if not tracing.unpatched():
            print("error: tracing wrappers left in ptlab", file=sys.stderr)
            return 1
        phases += [traced, sizing]
        metrics = runner.per_layer(tracer, traced, untraced, sizer)
    else:
        samples = [setup_s] + extra_setups(args)
        metrics = runner.end_to_end(untraced, samples)

    measured = traced if args.trace else untraced
    items = len(measured.records)
    notes = {
        "setup_s": f"median of {1 + SETUP_RUNS} set-ups, each divided by the host slowdown right after it",
        "items_per_s": f"each item at the median scaled latency of its class; {items} items, "
                       f"{measured.cycles} cycles, {measured.wall_s:.1f} s",
        "latency_p50_ms": f"n={items}",
        "peak_rss_mb": "ru_maxrss of this process",
        "numerics.rank_and_nullspace.input_mb": "computed from argument shapes",
        "numerics.nullspace_complex.input_mb": "computed from argument shapes",
    }
    if "latency_p90_ms" in metrics:
        beyond = int((1e3 * measured.scaled_latencies > metrics["latency_p90_ms"][0]).sum())
        notes["latency_p90_ms"] = f"n={items}, {beyond} beyond"
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, notes.get(name, ""))

    slowdown = measured.host_slowdown
    raw_ms = 1e3 * measured.latencies
    print(f"host {measured.probe} probe: slowdown p10/p50/p90 "
          f"{' / '.join(f'{x:.3f}' for x in np.percentile(slowdown, [10, 50, 90]))} over {len(slowdown)} items; "
          f"each latency above is divided by the slowdown around it. Undivided: "
          f"latency_p50_ms {np.percentile(raw_ms, 50):.6g}, latency_p90_ms {np.percentile(raw_ms, 90):.6g}")
    by_class = {}
    for r, scaled in zip(measured.records, measured.scaled_latencies):
        by_class.setdefault(r.cost_class, []).append((1e3 * r.latency_s, 1e3 * scaled))
    for (kind, n), lat in sorted(by_class.items(), key=lambda kv: statistics.median(s for _, s in kv[1])):
        print(f"latency {kind} n={n}: p50 {statistics.median(s for _, s in lat):.4g} ms scaled, "
              f"{statistics.median(r for r, _ in lat):.4g} ms undivided, over {len(lat)} items")
    if args.trace:
        inclusive, by_module = runner.time_shares(tracer, traced)
        print("share inclusive " + ", ".join(f"{label} {100 * x:.1f}% ({ms:.4g} ms/call)" for x, label, ms in inclusive))
        print("share self " + ", ".join(f"{module} {100 * x:.1f}%" for x, module in by_module))
        for r in sizing.records:
            print(f"sizing {r.kind} n={r.n}: {1e3 * r.latency_s:.4g} ms, once, after the traced phase")

    records = [r for phase in phases for r in phase.records]
    counts = runner.error_counts(records)
    print(f"error_rate {counts['error_rate']:.6g} fraction "
          f"({counts['erred']} of {counts['attempted']} items: {counts['exceptions']} undocumented exceptions, "
          f"{counts['failed'] - counts['exceptions']} failed certified outputs, "
          f"{counts['verdict_only']} failed verdict checks only)")
    for (name, hard), t in sorted(runner.oracle_tally(records).items()):
        tier = "certified" if hard else "verdict"
        example = f"  e.g. {t['example']}" if t["example"] else ""
        print(f"oracle {name:<28} {tier:<9} pass {t['pass']:>6} fail {t['fail']:>6}{example}")
    for r in records:
        if r.exception is not None:
            print(f"exception {r.kind} n={r.n}: {r.exception}")
            break

    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
