import os
import shutil
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
    assert (result.counters is None) == (backend == "oracle")
    assert result.detail == ""


def test_run_backend_rejects_unknown_name(example_uniform):
    with pytest.raises(ValueError):
        run_backend(example_uniform, "monte-carlo")


def test_run_backend_reports_counters(example_uniform):
    qb2 = run_backend(example_uniform, "qb2").counters.as_dict()
    assert qb2["stage_stm_counts"] == [3, 5, 3]
    assert qb2["total_aggregated"] == 15
    qbat = run_backend(example_uniform, "qbat").counters
    assert qbat.as_dict() == {
        "super_vectors": qbat.super_vectors,
        "connectivity_checks": qbat.connectivity_checks,
        "multiplications": qbat.multiplications,
        "summations": qbat.summations,
    }
    assert qbat.connectivity_checks > 0
    assert run_backend(example_uniform, "oracle").counters is None


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
    assert [(r["family"], r["k"], r["backend"]) for r in rows] == [
        ("series", 1, "oracle"),
        ("series", 1, "qb2"),
        ("series", 2, "oracle"),
        ("series", 2, "qb2"),
        ("series", 3, "oracle"),
        ("series", 3, "qb2"),
    ]
    for row in rows:
        assert list(row) == [
            "family", "k", "nodes", "arcs", "backend", "status", "reliability",
            "wall_time_s", "detail",
        ]
        assert row["status"] == "ok"
        assert row["reliability"] == pytest.approx(0.9 ** row["k"], rel=1e-12)
        assert row["nodes"] == row["k"] + 1
        assert row["arcs"] == row["k"]


def test_bench_sweep_mixes_timeout_skip_and_ok():
    rows = bench_sweep(
        "bridge-chain", 4, 5, 0.9, ("oracle", "qb2"), budget_s=0.05
    )
    by = {(r["k"], r["backend"]): r["status"] for r in rows}
    assert by[(4, "oracle")] == "timeout"  # 28 arcs, under the cap, too slow
    assert by[(5, "oracle")] == "skipped"  # 35 arcs, over the cap
    assert by[(4, "qb2")] == "ok"
    assert by[(5, "qb2")] == "ok"


def test_bench_sweep_seed_controls_probabilities():
    fixed = bench_sweep("ladder", 2, 2, 0.5, ("qb2",), seed=3)
    again = bench_sweep("ladder", 2, 2, 0.5, ("qb2",), seed=3)
    assert fixed[0]["reliability"] == again[0]["reliability"]
    uniform = bench_sweep("ladder", 2, 2, 0.5, ("qb2",))
    assert uniform[0]["reliability"] != fixed[0]["reliability"]


def run_crosscheck_script(*args):
    # no PYTHONPATH: the script finds relengine under src by itself
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "scripts/crosscheck_random.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_crosscheck_script_runs_from_a_plain_checkout():
    done = run_crosscheck_script("--count", "5", "--seed", "7")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("5 networks agree: worst spread ")


@pytest.mark.parametrize(
    "args, message",
    [
        (("--tolerance", "nan"), "tolerance must be at least 0"),
        (("--tolerance", "-1"), "tolerance must be at least 0"),
        (("--max-arcs", "2"), "admits an arc count"),  # no network fits
        (("--min-nodes", "0", "--max-nodes", "0", "--min-arcs", "0"), "at least 1"),
    ],
    ids=["tolerance-nan", "tolerance-negative", "no-network-fits", "no-nodes"],
)
def test_crosscheck_script_rejects_bad_arguments(args, message):
    done = run_crosscheck_script("--count", "3", "--seed", "7", *args)
    assert done.returncode == 2
    assert message in done.stderr
    assert done.stdout == ""


def test_ab_inprocess_script_compares_two_checkouts(tmp_path):
    root = Path(__file__).resolve().parent.parent
    copy = tmp_path / "copy"
    shutil.copytree(
        root / "src" / "relengine", copy / "src" / "relengine",
        ignore=shutil.ignore_patterns("__pycache__"),
    )

    def run(change):
        return subprocess.run(
            [
                sys.executable, "scripts/ab_inprocess.py", str(root), str(change),
                "--workload", "grid", "--backend", "qb2", "--rounds", "2",
            ],
            cwd=root, capture_output=True, text=True, timeout=120,
        )

    done = run(copy)
    assert done.returncode == 0, done.stderr
    assert "grid seed 1, qb2: 15 instances agree" in done.stdout
    assert "change won" in done.stdout
    # a copy whose qb2 miscounts by one summation is caught on every
    # instance, and still timed, since statuses and decompositions agree
    with open(copy / "src" / "relengine" / "stm.py", "a") as handle:
        handle.write(
            "\n_exact = reliability_qb2\n\n\n"
            "def reliability_qb2(network, budget=None):\n"
            "    value, counters = _exact(network, budget)\n"
            "    counters.summations += 1\n"
            "    return value, counters\n"
        )
    done = run(copy)
    assert done.returncode == 1, done.stderr
    assert "grid-3x2-0 (qb2) differs" in done.stdout
    assert (
        "15 of 15 instances differ in answer bits or counters, "
        "largest answer difference 0;" in done.stdout
    )
    assert "change won" in done.stdout
