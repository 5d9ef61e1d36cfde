"""Tests of the benchmark harness itself (not of ptlab).

Run with ``python -m pytest benchmarks/tests``; the repository's own test
run (``testpaths = tests``) does not collect them.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ptlab
from ptbench import oracles, runner, tracing
from ptbench.workloads import WORKLOADS, certify_execute, count_execute, sweep_execute

ROOT = Path(__file__).resolve().parents[2]


def _fingerprint(items):
    out = []
    for item in items:
        for key, value in sorted(item.data.items()):
            if isinstance(value, np.ndarray):
                out.append((item.kind, item.n, key, value.tobytes()))
            elif key in ("grid", "seed", "blocks", "metric_dim"):
                out.append((item.kind, item.n, key, repr(value)))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    cycle = WORKLOADS[name].cycle
    assert _fingerprint(cycle(7, 0)) == _fingerprint(cycle(7, 0))
    assert _fingerprint(cycle(7, 1)) != _fingerprint(cycle(7, 0))
    assert _fingerprint(cycle(8, 0)) != _fingerprint(cycle(7, 0))
    # every cycle of every seed has the same sizes, so the same cost
    assert sorted(i.n for i in cycle(8, 3)) == sorted(i.n for i in cycle(7, 0))


def _failed(checks):
    return [c.name for c in checks if not c.ok]


def test_sweep_oracle_rejects_flipped_unbroken_bit():
    item = WORKLOADS["sweep2x2"].cycle(3, 0)[0]
    code, text = sweep_execute(item)
    check = WORKLOADS["sweep2x2"].check
    assert _failed(check(item, (code, text))) == []
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[-1] = "0" if fields[-1] == "1" else "1"
    lines[5] = ",".join(fields)
    assert _failed(check(item, (code, "\n".join(lines) + "\n"))) == ["sweep.unbroken"]


def _small_item(kind):
    return next(i for i in WORKLOADS["certify_small"].cycle(5, 0) if i.kind == kind)


def test_witness_oracle_rejects_perturbed_witness():
    item = _small_item("known_pairs")
    out = certify_execute(item)
    assert _failed(oracles.check_witness(item.data["H"], out["witness"])) == []
    A = out["witness"].A
    bumped = replace(out["witness"], A=A + 1e-6 * np.linalg.norm(A) * np.ones_like(A) / A.shape[0])
    assert _failed(oracles.check_witness(item.data["H"], bumped)) == ["witness.residual"]


def test_metric_oracle_rejects_dropped_basis_vector():
    item = _small_item("known_pairs")
    out = certify_execute(item)
    H, dim = item.data["H"], item.data["metric_dim"]
    assert _failed(oracles.check_metric(H, out["metric"], dim)) == []
    basis = out["metric"].hermitian_basis[:-1]
    dropped = replace(out["metric"], hermitian_basis=basis, dimension=len(basis))
    assert _failed(oracles.check_metric(H, dropped, dim)) == ["metric.dimension"]


def test_count_oracle_rejects_wrong_column():
    item = next(i for i in WORKLOADS["count_table"].cycle(1, 0) if i.n == 4)
    code, text = count_execute(item)
    assert _failed(oracles.check_count_output(code, text, 4)) == []
    payload = json.loads(text)
    payload["columns"]["3"][2] += 1
    assert _failed(oracles.check_count_output(code, json.dumps(payload), 4)) == ["count.columns"]


def test_conversion_oracle_rejects_non_involutory_q():
    item = _small_item("pt2")
    out = certify_execute(item)
    result = out["conversion"]
    assert result.target_kind_satisfied
    assert _failed(oracles.verify_conversion(item.data["H"], result, "pseudo")) == []
    bad = replace(result, Q=1.01 * result.Q)
    assert _failed(oracles.verify_conversion(item.data["H"], bad, "pseudo")) == ["conversion.reverified"]


def test_metric_dimension_closed_form():
    # two simple real eigenvalues; a conjugate pair; a 3-block paired with a 2-block
    assert oracles.metric_dimension([(1.0, 1), (2.0, 1)]) == 2
    assert oracles.metric_dimension([(1 + 1j, 1), (1 - 1j, 1)]) == 2
    assert oracles.metric_dimension([(1 + 1j, 3), (1 - 1j, 2), (0.5, 1)]) == 2 + 2 + 1
    assert oracles.metric_dimension([(1 + 1j, 1), (2.0, 1)]) == 1


def _function_table():
    return {(module.__name__, name): obj for module in tracing.package_modules()
            for name, obj in vars(module).items() if callable(obj)}


def test_tracer_wraps_every_import_site_and_restores():
    before = _function_table()
    workload = WORKLOADS["sweep2x2"]
    tracer = tracing.Tracer()
    with tracer:
        assert ptlab.spectra.check_symmetry is not before[("ptlab.spectra", "check_symmetry")]
        assert ptlab.spectra.check_symmetry is ptlab.symmetry.check_symmetry
        assert ptlab.numerics.as_matrix.__wrapped__ is before[("ptlab.numerics", "as_matrix")]
        phase = runner.measure(workload, 2, seconds=0.01)
    assert tracing.unpatched()
    assert _function_table() == before
    stats = tracer.stats
    assert stats["cli.main"].calls == len(phase.records) == 10
    assert stats["spectra.classify_spectrum"].calls == 1000
    assert stats["metric.solve_metric_space"].calls == 0
    assert stats["involutions.verify_involution"].self_s > 0


def test_tracer_restores_after_an_exception():
    before = _function_table()
    with pytest.raises(ptlab.DimensionError):
        with tracing.Tracer() as tracer:
            ptlab.classify_spectrum(np.zeros((2, 3)))
    assert tracer.stats["numerics.as_square_matrix"].exceptions == 1
    assert _function_table() == before


def test_run_refuses_a_directory_without_ptlab(tmp_path):
    bench = tmp_path / "benchmarks"
    for path in (ROOT / "benchmarks").rglob("*.py"):
        target = bench / path.relative_to(ROOT / "benchmarks")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep2x2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def _phase(latencies_by_class, slowdown):
    phase = runner.Phase()
    for (group, n), latencies in latencies_by_class.items():
        phase.records += [runner.Record("k", n, lat, None, [], group) for lat in latencies]
    phase.probes = [slowdown] * len(phase.records)
    return phase


def test_class_latency_is_the_median_scaled_latency_of_each_cost_class():
    phase = _phase({("a", 2): [1.0, 1.0, 1.0, 2.0, 9.0], ("b", 2): [4.0] * 4}, 1.0)
    np.testing.assert_allclose(phase.host_slowdown, 1.0)
    assert list(phase.class_latencies) == [1.0] * 5 + [4.0] * 4
    assert phase.items_per_s == pytest.approx(9 / 21.0)


def test_a_uniformly_slow_run_reads_like_a_quiet_one():
    quiet = _phase({("a", 2): [1.0, 1.1, 1.2, 1.3]}, 1.0)
    slow = _phase({("a", 2): [1.7, 1.87, 2.04, 2.21]}, 1.7)
    np.testing.assert_allclose(slow.host_slowdown, 1.7)
    assert slow.items_per_s == pytest.approx(quiet.items_per_s)
    np.testing.assert_allclose(slow.scaled_latencies, quiet.scaled_latencies)


def test_each_item_is_scaled_by_the_probes_around_it():
    phase = _phase({("a", 2): [1.0, 2.0, 2.0, 1.0]}, 1.0)
    phase.probes = [1.0, 3.0, 1.0, 1.0]  # a spell around items 1 and 2
    np.testing.assert_allclose(phase.host_slowdown, [1.0, 2.0, 2.0, 1.0])
    np.testing.assert_allclose(phase.scaled_latencies, 1.0)


def test_every_workload_names_a_probe_and_every_probe_measures():
    for workload in WORKLOADS.values():
        slowdown = runner.host_slowdown(workload.probe)
        assert 0.0 < slowdown < 100.0


def test_dense_sizing_items_are_seeded_and_outside_the_cycles():
    dense = WORKLOADS["certify_dense"]
    assert _fingerprint(dense.sizing(7)) == _fingerprint(dense.sizing(7))
    assert _fingerprint(dense.sizing(8)) != _fingerprint(dense.sizing(7))
    assert [i.n for i in dense.sizing(7)] == [24, 32]
    assert max(i.n for i in dense.cycle(7, 0)) == 16
    assert all(WORKLOADS[name].sizing is None for name in WORKLOADS if name != "certify_dense")
