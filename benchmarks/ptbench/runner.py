"""Set-up, the closed measuring loop, and the metrics it reports.

One client in one process runs the items of a workload one after another;
the next item starts only when the previous one and its oracle check are
done. A run measures whole cycles: it starts another cycle while the elapsed
time plus half the last cycle's duration stays within ``--seconds``, so the
mix of items, and with it every percentile, is the same in every run.
"""

from __future__ import annotations

import math
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import tracing
from .oracles import Check
from .workloads import Workload

SETUP_PROBES = 200
# rng stream of the warm-up items: disjoint from the measured cycles, and the
# same for every seed, so set-up does the same work in every run
WARMUP_SEED, WARMUP_CYCLE = 0, 10 ** 6
# checks whose per-item pass rate is spectra.classify_spectrum.verdict_ok_frac
VERDICT_CHECKS = ("spectrum.reality_class", "spectrum.segre", "sweep.unbroken")


@dataclass
class Record:
    kind: str
    n: int
    latency_s: float
    exception: str | None
    checks: list
    group: str = ""

    @property
    def cost_class(self) -> tuple:
        return self.group or self.kind, self.n

    @property
    def failed(self) -> bool:
        """An undocumented exception or a failed check of a certified output."""
        return self.exception is not None or any(c.hard and not c.ok for c in self.checks)

    @property
    def erred(self) -> bool:
        """Counted in error_rate: failed, or a failed verdict check."""
        return self.failed or any(not c.ok for c in self.checks)


# ---------------------------------------------------------------- host probes
#
# The shared host runs everything up to twice slower in spells of a second to
# several minutes, sometimes for a whole run. A probe, a fixed piece of work
# that calls no ptlab code, runs after every item, outside the item's latency;
# each item's latency is scaled by the probe's reference time over the mean of
# the two probes around it (see Phase.scaled_latencies). How much a spell slows
# a piece of work depends on its kind: interpreted Python and tiny LAPACK calls
# slow down most, mid-size SVDs less. So each workload names the probe that
# looks like its own time: "python" for the 2x2 and n <= 6 items, "svd" where
# SVDs of Kronecker systems dominate, "mixed" where many small SVDs and
# interpreted code share it (count_table).

_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.normal(size=(4, 4)) + 1j * _PROBE_RNG.normal(size=(4, 4))
_PROBE_KEYS = list(range(256))
# the shape of the metric system of an n = 8 matrix (2 n^2 x n^2, complex)
_PROBE_SYSTEM = _PROBE_RNG.normal(size=(128, 64)) + 1j * _PROBE_RNG.normal(size=(128, 64))


def _python_probe_once() -> float:
    """LAPACK calls, products and tolerance checks on a 4x4 matrix, and a sort."""
    start = time.perf_counter()
    m = _PROBE_MATRIX
    for _ in range(8):
        np.linalg.eigvals(m)
        gram = m @ m.conj().T
        np.allclose(gram, gram.conj().T)
        np.linalg.norm(gram - m)
        np.linalg.svd(m)
    for _ in range(2):
        sorted(_PROBE_KEYS, key=lambda v: -v)
    return time.perf_counter() - start


def _svd_probe_once() -> float:
    start = time.perf_counter()
    np.linalg.svd(_PROBE_SYSTEM)
    return time.perf_counter() - start


# probe -> (one timed pass, its lower quartile on the quiet reference host:
# 2 Intel Xeon vCPUs at 2.0 GHz, Python 3.11, numpy 2.4 on scipy-openblas
# 0.3.31, one BLAS thread). "mixed" is the geometric mean of the two.
PROBES = {"python": (_python_probe_once, 0.50e-3), "svd": (_svd_probe_once, 2.2e-3)}


def host_slowdown(probe: str = "python") -> float:
    """Time the probe, warm, over its reference time.

    The first pass, untimed, refills the caches the item has just used, so
    the timed second pass does not depend on what the item did.
    """
    if probe == "mixed":
        return math.sqrt(host_slowdown("python") * host_slowdown("svd"))
    once, reference = PROBES[probe]
    once()
    return once() / reference


def setup_slowdown() -> float:
    """The host's slowdown right after a set-up: the lower quartile of
    SETUP_PROBES python probes (about 0.2 s)."""
    return float(np.percentile([host_slowdown("python") for _ in range(SETUP_PROBES)], 25))


@dataclass
class Phase:
    probe: str = "python"
    records: list = field(default_factory=list)
    cycles: int = 0
    wall_s: float = 0.0
    next_cycle: int = 0
    probes: list = field(default_factory=list)  # host_slowdown() right after records[i]

    @property
    def latencies(self) -> np.ndarray:
        return np.array([r.latency_s for r in self.records])

    @property
    def host_slowdown(self) -> np.ndarray:
        """Per item: the mean of the probes just before and just after it."""
        after = np.array(self.probes, dtype=float)
        before = np.concatenate([after[:1], after[:-1]])
        return 0.5 * (before + after)

    @property
    def scaled_latencies(self) -> np.ndarray:
        """Item latencies at the reference speed of the host."""
        return self.latencies / self.host_slowdown

    @property
    def class_latencies(self) -> np.ndarray:
        """Each item's scaled latency replaced by the median over its cost
        class (group, or kind, and size) in the run. Draws with a heavy
        tail (the least-squares search of gen_pt_to_pseudo) do not set it."""
        scaled = self.scaled_latencies
        by_class = defaultdict(list)
        for r, lat in zip(self.records, scaled):
            by_class[r.cost_class].append(lat)
        median = {key: float(np.median(lat)) for key, lat in by_class.items()}
        return np.array([median[r.cost_class] for r in self.records])

    @property
    def items_per_s(self) -> float:
        """Items per second of item time, every item at its class latency."""
        return len(self.records) / float(self.class_latencies.sum())


def run_item(workload: Workload, item) -> Record:
    start = time.perf_counter()
    try:
        output = workload.execute(item)
    except Exception as exc:  # an undocumented exception is a recorded outcome
        return Record(item.kind, item.n, time.perf_counter() - start, f"{type(exc).__name__}: {exc}", [], item.group)
    latency = time.perf_counter() - start
    try:
        checks = workload.check(item, output)
    except Exception as exc:  # output the oracle cannot even read
        checks = [Check("oracle.readable", False, detail=f"{type(exc).__name__}: {exc}")]
    return Record(item.kind, item.n, latency, None, checks, item.group)


def set_up(workload: Workload, seed: int) -> list:
    """Generate the first cycle and warm up on one item of each kind at the
    workload's smallest size.

    The warm-up pays the lazy ``scipy.optimize`` import, the first LAPACK
    calls and argparse's first parser build outside the measured phase. Its
    items do not depend on ``seed``: the cost of a warm-up gen_pt_to_pseudo
    call varies from draw to draw by a quarter of a certify_small set-up.
    """
    first = workload.cycle(seed, 0)
    warmup = workload.cycle(WARMUP_SEED, WARMUP_CYCLE)
    smallest = min(item.n for item in warmup)
    seen = set()
    for item in warmup:
        if item.n == smallest and item.kind not in seen:
            seen.add(item.kind)
            run_item(workload, item)
    return first


def measure(workload: Workload, seed: int, seconds: float, first_cycle: int = 0, first_items=None) -> Phase:
    phase = Phase(workload.probe)
    start = time.perf_counter()
    cycle = first_cycle
    while True:
        cycle_start = time.perf_counter()
        items = first_items if (cycle == first_cycle and first_items is not None) else workload.cycle(seed, cycle)
        for item in items:
            phase.records.append(run_item(workload, item))
            phase.probes.append(host_slowdown(workload.probe))
        phase.cycles += 1
        cycle += 1
        last = time.perf_counter() - cycle_start
        if time.perf_counter() - start + last / 2 > seconds:
            break
    phase.wall_s = time.perf_counter() - start
    phase.next_cycle = cycle
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- summaries

def oracle_tally(records) -> dict:
    """Pass/fail counts and a failing example per (check name, certified or verdict)."""
    tally = {}
    for r in records:
        for c in r.checks:
            entry = tally.setdefault((c.name, c.hard), {"pass": 0, "fail": 0, "example": ""})
            entry["pass" if c.ok else "fail"] += 1
            if not c.ok and not entry["example"]:
                entry["example"] = c.detail
    return tally


def error_counts(records) -> dict:
    return {
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "exceptions": sum(r.exception is not None for r in records),
        "erred": sum(r.erred for r in records),
        "verdict_only": sum(r.erred and not r.failed for r in records),
        "error_rate": _frac(sum(r.erred for r in records), len(records)),
    }


def _frac(num, den) -> float:
    return float(num) / den if den else 0.0


def _check_frac(records, names) -> float:
    outcomes = [c.ok for r in records for c in r.checks if c.name in names]
    return _frac(sum(outcomes), len(outcomes))


def _item_frac(records, names) -> float:
    """Share of items with a check named in ``names`` whose such checks all pass."""
    judged = [all(c.ok for c in r.checks if c.name in names)
              for r in records if any(c.name in names for c in r.checks)]
    return _frac(sum(judged), len(judged))


def end_to_end(phase: Phase, setup_samples) -> dict:
    """``setup_samples`` are set-up times already divided by their own slowdown."""
    lat_ms = 1e3 * phase.scaled_latencies
    p50, p90 = np.percentile(lat_ms, [50, 90])
    return {
        "setup_s": (float(np.median(setup_samples)), "s"),
        "items_per_s": (phase.items_per_s, "1/s"),
        "latency_p50_ms": (float(p50), "ms"),
        "latency_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# (label, unit, better) of the per-layer metrics; see per_layer() for how each is computed.
CALLS = ("numerics.as_matrix", "involutions.verify_involution", "symmetry.check_symmetry",
         "spectra.classify_spectrum", "metric.solve_metric_space", "convert.witness_space",
         "convert.transpose_matrix", "symmetry.find_gen_pt_operator",
         "numerics.rank_and_nullspace", "numerics.nullspace_complex")
SELF = ("involutions.verify_involution", "symmetry.check_symmetry", "spectra.classify_spectrum", "cli.main",
        "metric.solve_metric_space", "convert.witness_space", "convert.transpose_matrix",
        "symmetry.find_gen_pt_operator", "convert.pt_to_pseudo", "convert.pseudo_to_pt",
        "convert.gen_pt_to_pseudo", "numerics.rank_and_nullspace", "numerics.nullspace_complex",
        "numerics.real_matrix_of_map", "counting.table1_report", "counting.count_matrix_family",
        "counting.count_operator_orbit", "counting.count_real_charpoly_variety")
SIZED_P50 = (("metric.solve_metric_space", 16), ("metric.solve_metric_space", 24),
             ("metric.solve_metric_space", 32), ("convert.transpose_matrix", 24),
             ("convert.transpose_matrix", 32))
CONVERSIONS = ("convert.pt_to_pseudo", "convert.pseudo_to_pt", "convert.gen_pt_to_pseudo")


def per_layer_spec() -> list:
    spec = [(f"{label}.calls", "calls/item", "lower") for label in CALLS]
    spec += [(f"{label}.self_s", "s/item", "lower") for label in SELF]
    spec += [(f"{module}.self_s", "s/item", "lower") for module in tracing.TRACED_MODULES]
    spec += [(f"{label}.n{n}.p50_ms", "ms", "lower") for label, n in SIZED_P50]
    spec += [(f"{label}.input_mb", "MB/item", "lower") for label in tracing.SVD_ITEMSIZE]
    spec += [
        ("ptlab.exceptions", "calls/item", "lower"),
        ("convert.success_frac", "fraction", "higher"),
        ("spectra.classify_spectrum.ambiguous_frac", "fraction", "lower"),
        ("spectra.classify_spectrum.verdict_ok_frac", "fraction", "higher"),
        ("metric.solve_metric_space.dimension_ok_frac", "fraction", "higher"),
        ("symmetry.find_gen_pt_operator.found_frac", "fraction", "higher"),
        ("error_rate", "fraction", "lower"),
        ("trace.items_per_s", "1/s", "higher"),
        ("trace.untraced_items_per_s", "1/s", "higher"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return spec


def time_shares(tracer: tracing.Tracer, traced: Phase, top: int = 6) -> tuple:
    """Shares of the traced phase's item time: inclusive, for the ``top``
    costliest wrapped functions, and self time summed by module."""
    item_time = float(traced.latencies.sum())
    inclusive = sorted(((s.total_s / item_time, label, 1e3 * s.total_s / s.calls)
                        for label, s in tracer.stats.items() if s.calls), reverse=True)[:top]
    modules = {}
    for label, s in tracer.stats.items():
        module = label.split(".")[0]
        modules[module] = modules.get(module, 0.0) + s.self_s / item_time
    return inclusive, sorted(((share, module) for module, share in modules.items() if share), reverse=True)


def per_layer(tracer: tracing.Tracer, traced: Phase, untraced: Phase, sizer: tracing.Tracer | None = None) -> dict:
    """Per-item figures of the traced phase; the sized p50s also take the
    sizing items (timed by ``sizer``) at sizes the cycles do not have."""
    st = tracer.stats
    items = len(traced.records)
    values = {}
    for label in CALLS:
        values[f"{label}.calls"] = st[label].calls / items
    for label in SELF:
        values[f"{label}.self_s"] = st[label].self_s / items
    for module in tracing.TRACED_MODULES:
        values[f"{module}.self_s"] = sum(s.self_s for k, s in st.items() if k.split(".")[0] == module) / items
    for label, n in SIZED_P50:
        samples = st[label].sized_ms.get(n) or (sizer.stats[label].sized_ms.get(n, []) if sizer else [])
        values[f"{label}.n{n}.p50_ms"] = float(np.median(samples)) if samples else 0.0
    for label in tracing.SVD_ITEMSIZE:
        values[f"{label}.input_mb"] = st[label].input_bytes / 1e6 / items
    errors = error_counts(traced.records)
    values.update({
        "ptlab.exceptions": sum(s.exceptions for s in st.values()) / items,
        "convert.success_frac": _frac(sum(st[c].outcomes for c in CONVERSIONS), sum(st[c].calls for c in CONVERSIONS)),
        "spectra.classify_spectrum.ambiguous_frac": _frac(st["spectra.classify_spectrum"].outcomes,
                                                          st["spectra.classify_spectrum"].calls),
        "spectra.classify_spectrum.verdict_ok_frac": _item_frac(traced.records, VERDICT_CHECKS),
        "metric.solve_metric_space.dimension_ok_frac": _check_frac(traced.records, ("metric.dimension",)),
        "symmetry.find_gen_pt_operator.found_frac": _frac(st["symmetry.find_gen_pt_operator"].outcomes,
                                                          st["symmetry.find_gen_pt_operator"].calls),
        "error_rate": errors["error_rate"],
        "trace.items_per_s": traced.items_per_s,
        "trace.untraced_items_per_s": untraced.items_per_s,
        "trace.overhead_frac": 1.0 - traced.items_per_s / untraced.items_per_s,
    })
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {name: (float(values[name]), units[name]) for name in units}
