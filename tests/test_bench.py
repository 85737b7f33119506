import os
import subprocess
import sys
from pathlib import Path

import pytest

from relengine.bat import EnumerationCapExceeded
from relengine.bench import (
    BACKENDS,
    RunResult,
    bench_sweep,
    crosscheck,
    run_backend,
)
from relengine.generators import GeneratorSpec, build
from relengine.network import make_network


def test_backend_names():
    assert BACKENDS == ("oracle", "qbat", "qb2")


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_backend_ok(example_uniform, backend):
    result = run_backend(example_uniform, backend)
    assert result.status == "ok"
    assert result.backend == backend
    assert result.reliability == pytest.approx(0.9781803, abs=1e-12)
    assert result.wall_time_s >= 0
    assert result.counters is None
    assert result.detail == ""


def test_run_backend_rejects_unknown_name(example_uniform):
    with pytest.raises(ValueError):
        run_backend(example_uniform, "monte-carlo")


def test_run_backend_reports_counters(example_uniform):
    qb2 = run_backend(example_uniform, "qb2", with_counters=True)
    assert qb2.counters["stage_stm_counts"] == [3, 5, 3]
    assert qb2.counters["total_aggregated"] == 15
    qbat = run_backend(example_uniform, "qbat", with_counters=True)
    assert set(qbat.counters) == {
        "super_vectors",
        "connectivity_checks",
        "multiplications",
        "summations",
    }
    oracle = run_backend(example_uniform, "oracle", with_counters=True)
    assert oracle.counters is None


def test_run_backend_skips_above_cap():
    net = build(GeneratorSpec("series", 31, 0.9))
    result = run_backend(net, "oracle")
    assert result.status == "skipped"
    assert result.reliability is None
    assert "cap" in result.detail
    # qbat and qb2 answer: qb2 refuses only a stage of more than 30 arcs
    for backend in ("qb2", "qbat"):
        result = run_backend(net, backend)
        assert result.status == "ok"
        assert result.reliability == pytest.approx(0.9**31, rel=1e-12)


def test_run_backend_times_out():
    net = build(GeneratorSpec("ladder", 7, 0.5))  # 23 arcs
    result = run_backend(net, "oracle", budget_s=1e-7)
    assert result.status == "timeout"
    assert result.reliability is None
    assert result.detail


def test_crosscheck_passes_on_example(example_uniform):
    report = crosscheck(example_uniform)
    assert report.passed
    assert report.max_delta <= 1e-12
    assert [r.backend for r in report.results] == list(BACKENDS)
    assert all(r.status == "ok" for r in report.results)


def test_crosscheck_fails_with_zero_tolerance(example_uniform):
    report = crosscheck(example_uniform, tolerance=0.0)
    assert report.max_delta >= 0
    # the backends agree to ~1e-16 but not to exactly zero here
    assert not report.passed


def test_crosscheck_default_tolerance_is_1e_10(monkeypatch, example_uniform):
    # a spread of 5e-10 is inside 1e-9 but outside the 1e-10 contract
    answers = iter([0.5, 0.5 + 5e-10, 0.5])
    monkeypatch.setattr(
        "relengine.bench.run_backend",
        lambda network, backend: RunResult(backend, "ok", next(answers), 0.0),
    )
    report = crosscheck(example_uniform)
    assert report.tolerance == 1e-10
    assert not report.passed


def test_crosscheck_refuses_above_cap():
    net = build(GeneratorSpec("bridge-chain", 5, 0.9))  # 35 arcs
    with pytest.raises(EnumerationCapExceeded):
        crosscheck(net)


def test_crosscheck_on_degenerate_probabilities():
    net = make_network(3, [(1, 2, 1.0), (2, 3, 0.0), (1, 3, 0.5)])
    report = crosscheck(net)
    assert report.passed
    assert report.results[0].reliability == pytest.approx(0.5, abs=0)


def test_bench_sweep_shapes_and_statuses():
    rows = bench_sweep("series", 1, 3, 0.9, ("oracle", "qb2"), budget_s=30.0)
    assert len(rows) == 6
    assert [(r.family, r.k, r.result.backend) for r in rows] == [
        ("series", 1, "oracle"),
        ("series", 1, "qb2"),
        ("series", 2, "oracle"),
        ("series", 2, "qb2"),
        ("series", 3, "oracle"),
        ("series", 3, "qb2"),
    ]
    for row in rows:
        assert row.result.status == "ok"
        assert row.result.reliability == pytest.approx(0.9**row.k, rel=1e-12)
        d = row.as_dict()
        assert d["nodes"] == row.k + 1
        assert d["arcs"] == row.k


def test_bench_sweep_mixes_timeout_skip_and_ok():
    rows = bench_sweep(
        "bridge-chain", 4, 5, 0.9, ("oracle", "qb2"), budget_s=0.05
    )
    by = {(r.k, r.result.backend): r.result.status for r in rows}
    assert by[(4, "oracle")] == "timeout"  # 28 arcs, under the cap, too slow
    assert by[(5, "oracle")] == "skipped"  # 35 arcs, over the cap
    assert by[(4, "qb2")] == "ok"
    assert by[(5, "qb2")] == "ok"


def test_bench_sweep_seed_controls_probabilities():
    fixed = bench_sweep("ladder", 2, 2, 0.5, ("qb2",), seed=3)
    again = bench_sweep("ladder", 2, 2, 0.5, ("qb2",), seed=3)
    assert fixed[0].result.reliability == again[0].result.reliability
    uniform = bench_sweep("ladder", 2, 2, 0.5, ("qb2",))
    assert uniform[0].result.reliability != fixed[0].result.reliability


def test_crosscheck_script_runs_from_a_plain_checkout():
    # no PYTHONPATH: the script finds relengine under src by itself
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "scripts/crosscheck_random.py", "--count", "5", "--seed", "7"],
        cwd=root,
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("5 networks agree: worst spread ")
