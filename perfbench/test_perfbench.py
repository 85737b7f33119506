"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import reference, run, workloads
from perfbench.measure import Tally
from perfbench.tracing import Tracer, traced_run

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
BRIDGE4 = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))  # the 4-node bridge, rung 2-3


def bridge_formula(p: float) -> float:
    return 2 * p**2 + 2 * p**3 - 5 * p**4 + 2 * p**5


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.99])
def test_bridge_hand_value(p):
    assert reference.brute_force(4, [(u, v, p) for u, v in BRIDGE4]) == pytest.approx(
        bridge_formula(p), abs=1e-14
    )
    assert reference.ladder(1, [p] * 5) == pytest.approx(bridge_formula(p), abs=1e-14)


def test_small_hand_values():
    assert reference.brute_force(2, [(1, 2, 0.3)]) == pytest.approx(0.3, abs=1e-15)
    assert reference.brute_force(3, [(1, 2, 0.5), (2, 3, 0.8)]) == pytest.approx(0.4, abs=1e-15)
    # triangle: direct arc, or the two-arc detour
    assert reference.brute_force(3, [(1, 3, 0.5), (1, 2, 0.5), (2, 3, 0.5)]) == pytest.approx(0.625)
    assert reference.series([0.9, 0.8, 0.5]) == pytest.approx(0.36, abs=1e-15)
    # the 5-node double bridge with every arc at 0.9
    assert reference.bridge_chain([0.9] * 7) == pytest.approx(0.9781803, abs=1e-12)
    assert reference.bridge_chain([0.9] * 21) == pytest.approx(0.9781803**3, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ladder_transfer_matches_brute_force(k):
    rng = random.Random(k)
    n, pairs = workloads.ladder_pairs(k)
    probs = [rng.uniform(0.05, 0.95) for _ in pairs]
    expected = reference.brute_force(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])
    assert reference.ladder(k, probs) == pytest.approx(expected, abs=1e-13)


def test_bridge_chain_matches_brute_force():
    rng = random.Random(7)
    n, pairs = workloads.bridge_chain_pairs(2)
    probs = [rng.uniform(0.05, 0.95) for _ in pairs]
    expected = reference.brute_force(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])
    assert reference.bridge_chain(probs) == pytest.approx(expected, abs=1e-13)


def test_brute_force_refuses_large_networks():
    n, pairs = workloads.series_pairs(reference.BRUTE_FORCE_MAX_ARCS + 1)
    with pytest.raises(ValueError):
        reference.brute_force(n, [(u, v, 0.5) for u, v in pairs])


def test_perturbed_answers_are_caught():
    inst = workloads.Instance("x", "", ("qbat", "qb2"), 0.25)
    tally = Tally()
    assert tally.check(inst, "qbat", 0.25 + 5e-11)
    assert not tally.check(inst, "qbat", 0.25 + 2e-10)
    assert not tally.check(inst, "qbat", None)
    assert tally.check(inst, "qb2", 0.25)
    # within tolerance, but not bit-identical to the first qb2 answer
    assert not tally.check(inst, "qb2", math.nextafter(0.25, 1.0))
    assert (tally.attempted, tally.failed, tally.wrong) == (5, 3, 2)
    assert tally.result({})["correct"] is False


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded_with_a_fixed_make_up(name):
    first, again, other = (workloads.build(name, s) for s in (3, 3, 4))
    assert first == again
    assert [i.text for i in first] != [i.text for i in other]

    def shape(instances):
        return [(i.label, i.backends, i.text.count("\narc ")) for i in instances]

    assert shape(first) == shape(other)


def test_corpus_make_up():
    nets = workloads.corpus(1)
    assert len(nets) == 300
    shapes = [(int(i.text.split()[1]), i.text.count("\narc ")) for i in nets]
    assert shapes == workloads._corpus_shapes()
    assert all(4 <= n <= 8 and 5 <= m <= 14 for n, m in shapes)
    assert [n for n, _ in shapes].count(8) == 60


@pytest.fixture(scope="module")
def relengine():
    return run.load_program()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_references_agree_with_the_program(relengine, name):
    for inst in workloads.build(name, 2)[::4]:
        network = relengine.parse_network(inst.text)
        value, _ = relengine.reliability_qb2(network)
        assert value == pytest.approx(inst.reference, abs=1e-10)


def _small(name):
    return [i for i in workloads.build(name, 1) if i.text.count("\narc ") <= 40]


def test_timed_run_reports_every_end_to_end_metric(relengine):
    result = run.timed_run(relengine, _small("chains") + _small("corpus")[:20], 0.01)
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_repeats_its_counts(relengine):
    instances = _small("chains") + _small("grid")[:5]
    first = traced_run(relengine, instances, 0.01)
    second = traced_run(relengine, instances, 0.01)
    assert set(first["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}
    assert (first["correct"], first["failed"]) == (True, 0)
    for name, metric in first["metrics"].items():
        if metric["unit"] != "s":
            assert metric == second["metrics"][name]


def test_tracer_self_time():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    assert tracer.total("inner") == 4.0
    assert tracer.self_time("outer") == 6.0
    assert tracer.count("inner") == 2


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
