"""What the benchmark under ``benchmarks/`` reads of the package.

The benchmark's files stay fixed between its revisions, so a change to
``src/`` that removes something they name (a domain class the tracer wraps,
the ``Chart`` field its chart wrapper replaces, a ``VectorField`` keyword a
workload passes) would only show when the benchmark runs.  These tests
build those parts here instead.
"""

import sys
from pathlib import Path

import pytest

from relaxarea import domains, fields, quadrature, topology

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import bench_trace
        import bench_workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return bench_trace, bench_workloads


def test_tracer_installs_counts_and_uninstalls(bench):
    bench_trace, _ = bench
    before = (quadrature.integrate, fields.VectorField.__dict__["jacobian_many"],
              domains.Cube.__dict__["charts"])
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        res = quadrature.area_functional(
            fields.make_example_field("vortex", d=1), domains.Cube(2, 1.0), 1e-3)
        assert tracer.counts["quadrature.nodes"] == res.nodes_used > 0
        assert tracer.counts["domains.charts.calls"] == 1
    finally:
        tracer.uninstall()
    assert before == (quadrature.integrate,
                      fields.VectorField.__dict__["jacobian_many"],
                      domains.Cube.__dict__["charts"])


def test_generated_line_field_builds(bench):
    _, bench_workloads = bench
    f = bench_workloads.line_field(2, (0.1, -0.2), (0.3, 0.2, 0.1))
    assert f.n == 3 and f.m == 2


def test_tracer_sees_the_distances_of_an_extraction(bench):
    # extraction calls distance_to_chain by its name in topology, which the
    # tracer rebinds there; uninstalling restores the original
    bench_trace, bench_workloads = bench
    before = topology.distance_to_chain
    field = bench_workloads.line_field(2, (0.1, -0.2), (0.3, 0.2, 0.1))
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        topology.extract_lines_3d(field, topology.GridSpec(3, 16))
        assert tracer.counts["topology.extract.calls"] == 1
        assert tracer.counts["chains.distance_to_chain.calls"] > 0
    finally:
        tracer.uninstall()
    assert topology.distance_to_chain is before
