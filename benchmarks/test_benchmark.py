"""Fast self-test of the benchmark: ``python3 -m pytest benchmarks -q``.

Runs one task per workload with tracing on, twice, and one short untraced
run of the whole command, and checks the benchmark's own contract: every
metric named in ``BENCHMARK.json`` is emitted with its unit, traced counts
repeat exactly, self times are non-negative, and ``quadrature.nodes`` is
the sum of the ``nodes_used`` the package returned.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread environment before numpy loads)

run._import_package()

import bench_workloads  # noqa: E402
from bench_trace import PER_LAYER_UNITS, Tracer, per_layer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced_warmup(name, tmp_path):
    """Per-layer metrics and result of one traced run of the workload's warm-up."""
    workload = bench_workloads.build(name, 7, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.warmup.run()
        metrics = per_layer(tracer.raw())
    finally:
        tracer.uninstall()
    return metrics, result


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_task_counts_repeat_exactly(name, tmp_path):
    first, _ = _traced_warmup(name, tmp_path)
    second, _ = _traced_warmup(name, tmp_path)
    expected = set(PER_LAYER_UNITS) - {"trace.overhead_frac"}
    assert set(first) == expected
    for key in expected:
        if PER_LAYER_UNITS[key] == "s":
            assert first[key] >= 0.0 and second[key] >= 0.0, key
        else:
            assert first[key] == second[key], key


def test_nodes_are_the_returned_nodes_used(tmp_path):
    metrics, result = _traced_warmup("singular-cube", tmp_path)
    assert metrics["quadrature.nodes"] == result.nodes_used > 0
    assert metrics["quadrature.integrate.calls"] == 1
    assert metrics["quadrature.cells"] * (8**2 + 4**2) == result.nodes_used


def test_uninstall_restores_every_binding(tmp_path):
    from relaxarea import chains, domains, fields, quadrature, topology

    before = (chains.distance_to_chain, fields.distance_to_chain,
              quadrature.distance_to_chain, topology.distance_to_chain,
              fields.VectorField.__dict__["jacobian_many"],
              domains.Cube.__dict__["charts"])
    _traced_warmup("singular-cube", tmp_path)
    after = (chains.distance_to_chain, fields.distance_to_chain,
             quadrature.distance_to_chain, topology.distance_to_chain,
             fields.VectorField.__dict__["jacobian_many"],
             domains.Cube.__dict__["charts"])
    assert all(a is b for a, b in zip(before, after))


def test_lattice_inputs_follow_the_seed(tmp_path):
    def generated_chain_csv(seed):
        workload = bench_workloads.build("lattice-extract", seed, tmp_path)
        assert sum(t.name.startswith("line") for t in workload.tasks) == \
            bench_workloads.GENERATED_FIELDS
        return chain_csv_text(workload.tasks[-1].run())

    from relaxarea.chains import chain_csv_text

    assert generated_chain_csv(3) == generated_chain_csv(3)
    assert generated_chain_csv(3) != generated_chain_csv(4)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "acceptance-studies",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "singular-cube", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
