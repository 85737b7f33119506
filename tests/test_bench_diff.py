import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_diff.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(side, seed, solves, rss, extra=None):
    metrics = {
        "qb2.solves_per_s": {"value": solves, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }
    metrics.update(extra or {})
    return {
        "side": side, "workload": "chains", "seed": seed, "trace": 0, "seconds": 25,
        "result": {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics},
    }


def test_bench_diff_medians_ratios_and_wins(tmp_path, capsys):
    bench_diff = load_script()
    runs = [
        run("parent", 1, 10.0, 60.0), run("change", 1, 30.0, 50.0),
        run("parent", 2, 8.0, 40.0), run("change", 2, 32.0, 45.0),
        run("parent", 3, 9.0, 50.0), run("change", 3, 7.0, 40.0),
        run("parent", 4, 1.0, 1.0, {"odd.count": {"value": 4, "unit": "count"}}),
    ]
    benchmark = {
        "end_to_end": [
            {"name": "qb2.solves_per_s", "better": "higher"},
            {"name": "peak_rss_mb", "better": "lower"},
        ],
    }
    rows = bench_diff.summarise(runs, bench_diff.directions(benchmark))
    # seed 4 has no change run: it moves the parent medians and quartiles
    # but wins no pair, and a metric only the parent reports is left out.
    # Parent quartiles (exclusive method) of 1, 8, 9, 10 are 2.75 and 9.75,
    # and of 1, 40, 50, 60 are 10.75 and 57.5.
    assert rows == [
        ("chains", 0, "qb2.solves_per_s", 8.5, 7.0, 30.0, 30.0 / 8.5, 2, 3),
        ("chains", 0, "peak_rss_mb", 45.0, 46.75, 45.0, 1.0, 2, 3),
    ]
    assert bench_diff.summarise(runs, {})[0][7] is None

    traced = [dict(run("parent", 1, 5.0, 20.0), trace=1), dict(run("change", 1, 6.0, 20.0), trace=1)]
    assert bench_diff.summarise(traced, {})[0][4] is None  # one parent run has no spread

    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"runs": runs + traced}))
    assert bench_diff.main([str(bench)]) == 0  # directions from BENCHMARK.json
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[3:5] == ["parent", "p.iqr"]
    assert lines[1].split() == ["chains", "0", "qb2.solves_per_s", "8.5", "7", "30", "3.529", "2/3"]
    assert lines[2].split() == ["chains", "0", "peak_rss_mb", "45", "46.75", "45", "1.000", "2/3"]
    assert lines[3].split() == ["chains", "1", "qb2.solves_per_s", "5", "-", "6", "1.200", "1/1"]
