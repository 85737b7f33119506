import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relengine
from relengine.bench import run_backend
from relengine.cli import build_parser, format_reliability, main
from relengine.generators import GeneratorSpec, build
from relengine.network import Arc, Network, format_network, network_digest, parse_network


@pytest.fixture()
def example_file(tmp_path):
    net = build(GeneratorSpec("bridge-chain", 1, 0.9))
    path = tmp_path / "example.net"
    path.write_text(format_network(net))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "value, text",
    [
        (1.0, "1.000000000"),
        (0.9781803, "0.9781803000"),
        (0.7, "0.7000000000"),
        (0.05, "0.05000000000"),
        (0.0009876543215, "0.0009876543215"),
        (0.0, "0.000000000"),
        (0.99999999997, "1.000000000"),
        (0.0999999999996, "0.1000000000"),
        (1e-300, "1.000000000e-300"),
        (0.00001234567891, "1.234567891e-05"),
    ],
)
def test_format_reliability_keeps_ten_significant_digits(value, text):
    assert format_reliability(value) == text


def test_compute_prints_a_tiny_reliability_in_exponent_form(tmp_path, capsys):
    code, out, _ = run_cli(
        ["generate", "--family", "series", "--k", "1000", "--p", "0.5"], capsys
    )
    assert code == 0
    path = tmp_path / "series.net"
    path.write_text(out)
    code, out, _ = run_cli(["compute", str(path)], capsys)
    assert code == 0
    assert out == "9.332636185e-302\n"


def test_compute_default_backend(example_file, capsys):
    code, out, err = run_cli(["compute", example_file], capsys)
    assert code == 0
    assert out == "0.9781803000\n"
    assert err == ""


@pytest.mark.parametrize("backend", ["oracle", "qbat", "qb2"])
def test_compute_every_backend_agrees(example_file, capsys, backend):
    code, out, _ = run_cli(
        ["compute", example_file, "--backend", backend], capsys
    )
    assert code == 0
    assert out.startswith("0.9781803000")


def test_compute_single_arc(tmp_path, capsys):
    path = tmp_path / "one.net"
    path.write_text("nodes 2\narc 1 2 0.7\n")
    code, out, _ = run_cli(["compute", str(path), "--backend", "oracle"], capsys)
    assert code == 0
    assert out == "0.7000000000\n"


def test_compute_is_byte_deterministic(example_file, capsys):
    first = run_cli(["compute", example_file], capsys)
    second = run_cli(["compute", example_file], capsys)
    assert first == second


def test_compute_json_payload(example_file, capsys):
    code, out, _ = run_cli(["compute", example_file, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["formatted"] == "0.9781803000"
    assert abs(payload["reliability"] - 0.9781803) < 1e-12
    assert payload["backend"] == "qb2"
    assert payload["wall_time_s"] >= 0
    assert payload["counters"]["stage_stm_counts"] == [3, 5, 3]
    net = parse_network(format_network(build(GeneratorSpec("bridge-chain", 1, 0.9))))
    assert payload["network_digest"] == network_digest(net)


@pytest.mark.parametrize("backend", ["oracle", "qbat", "qb2"])
def test_compute_json_has_one_schema_for_every_backend(example_file, capsys, backend):
    code, out, _ = run_cli(["compute", example_file, "--backend", backend, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "reliability", "formatted", "backend", "wall_time_s", "network_digest", "counters",
    ]
    assert (payload["counters"] is None) == (backend == "oracle")


def test_compute_explain_decomposition(example_file, capsys):
    code, out, _ = run_cli(["explain", example_file], capsys)
    assert code == 0
    assert "shortest path: a2 a6" in out
    assert "stage 3" in out


def test_compute_explain_decomposition_single_node(tmp_path, capsys):
    path = tmp_path / "one-node.net"
    path.write_text("nodes 1\n")
    code, out, _ = run_cli(["explain", str(path)], capsys)
    assert code == 0
    assert "shortest path: (source equals sink)" in out


def test_compute_qbat_on_long_series(tmp_path, capsys):
    code, text, _ = run_cli(
        ["generate", "--family", "series", "--k", "1200", "--p", "0.9"], capsys
    )
    assert code == 0
    path = tmp_path / "series-1200.net"
    path.write_text(text)
    code, out, _ = run_cli(["compute", str(path), "--backend", "qbat"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(0.9**1200, rel=1e-9)


def test_compute_refuses_wide_qb2_stage(tmp_path, capsys, monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built above the cap")

    monkeypatch.setattr("relengine.stm.half_probability_tables", no_tables)
    monkeypatch.setattr("relengine.stm._table", no_tables)
    code, text, _ = run_cli(
        ["generate", "--family", "grid", "--k", "30", "--p", "0.9"], capsys
    )
    assert code == 0
    path = tmp_path / "grid-30.net"
    path.write_text(text)
    code, out, err = run_cli(["compute", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert "qb2 stage 2 has 145 arcs, above the cap of 30" in err


def test_compute_refuses_more_nodes_than_qbat_has_labels(monkeypatch, capsys):
    # a valid file with that many nodes needs over a million arcs, so the
    # loaded network is handed in unvalidated
    net = Network(sys.maxunicode + 1, (Arc(1, 1, 2, 0.5),))
    monkeypatch.setattr("relengine.cli._load_network", lambda path: net)
    code, out, err = run_cli(["compute", "big.net", "--backend", "qbat"], capsys)
    assert code == 3
    assert out == ""
    assert f"qbat takes at most {sys.maxunicode} nodes" in err


@pytest.mark.parametrize("backend", ["oracle", "qbat", "qb2"])
def test_compute_budget_runs_out(tmp_path, capsys, backend):
    path = tmp_path / "grid-5.net"
    path.write_text(format_network(build(GeneratorSpec("grid", 5, 0.9))))
    code, out, err = run_cli(
        ["compute", str(path), "--backend", backend, "--budget", "1e-7"], capsys
    )
    assert code == 5
    assert out == ""
    assert "time budget of 1e-07 s exceeded" in err


def test_compute_within_budget(example_file, capsys):
    code, out, err = run_cli(["compute", example_file, "--budget", "60"], capsys)
    assert code == 0
    assert out == "0.9781803000\n"
    assert err == ""


@pytest.mark.parametrize("budget", ["0", "-1", "nan", "soon"])
def test_compute_rejects_bad_budget(example_file, budget):
    with pytest.raises(SystemExit) as err:
        main(["compute", example_file, "--budget", budget])
    assert err.value.code == 2


def test_compute_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("nodes 3\narc 1 2 0.5\narc 1 2 0.6\narc 2 3 0.5\n")
    code, out, err = run_cli(["compute", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "duplicates endpoint pair" in err


def test_compute_reports_syntax_line(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("nodes 3\narc 1 2\n")
    code, _, err = run_cli(["compute", str(path)], capsys)
    assert code == 1
    assert "line 2" in err


def test_compute_rejects_huge_node_count(tmp_path, capsys):
    # refused as disconnected before any per-node table is sized
    path = tmp_path / "huge.net"
    path.write_text("nodes 100000000000000000000\narc 1 2 0.5\n")
    code, out, err = run_cli(["compute", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "disconnected" in err


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
def test_network_file_encodings(tmp_path, capsys, command):
    # a UTF-8 byte-order mark is skipped; undecodable bytes are a read error
    bom = tmp_path / "bom.net"
    bom.write_bytes(b"\xef\xbb\xbfnodes 2\narc 1 2 0.5\n")
    code, out, err = run_cli([command, str(bom)], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith("0.5000000000\n" if command == "compute" else "oracle  0.5000000000\n")
    latin = tmp_path / "latin.net"
    latin.write_bytes(b"nodes 2\narc 1 2 0.5 \xff\n")
    code, out, err = run_cli([command, str(latin)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"relengine: cannot read {latin}: ")
    assert "can't decode byte 0xff" in err


def test_compute_missing_file(capsys):
    code, _, err = run_cli(["compute", "/nonexistent/x.net"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_usage_errors_exit_two(example_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", example_file, "--backend", "simulated"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bench", "--family", "series"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_removed_bat_backend_is_a_usage_error(example_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", example_file, "--backend", "bat"])
    assert err.value.code == 2
    code, _, err = run_cli(
        [
            "bench", "--family", "series", "--k-min", "1", "--k-max", "1",
            "--p", "0.5", "--backends", "bat",
        ],
        capsys,
    )
    assert code == 2
    assert "unknown backend 'bat'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "FILE", "--explain-decomposition"],
        ["crosscheck", "--family", "series", "--k", "3", "--p", "0.5"],
        ["crosscheck", "FILE", "--seed", "4"],
        ["compute", "FILE", "--counters"],
        ["compute", "FILE", "--time"],
        ["bench", "--family", "series", "--k-min", "1", "--k-max", "1", "--p", "0.5", "--csv"],
    ],
    ids=[
        "compute-explain-decomposition", "crosscheck-family", "crosscheck-seed",
        "compute-counters", "compute-time", "bench-csv",
    ],
)
def test_removed_cli_modes_are_usage_errors(example_file, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([example_file if arg == "FILE" else arg for arg in argv])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_compute_oracle_refuses_above_cap(tmp_path, capsys):
    path = tmp_path / "series31.net"
    path.write_text(format_network(build(GeneratorSpec("series", 31, 0.5))))
    code, out, err = run_cli(["compute", str(path), "--backend", "oracle"], capsys)
    assert code == 3
    assert out == ""
    assert "31 arcs exceeds the cap of 30" in err
    # qb2 and qbat do not enumerate the whole network, so they answer
    for backend in ("qb2", "qbat"):
        code, out, _ = run_cli(["compute", str(path), "--backend", backend], capsys)
        assert code == 0
        assert out == format_reliability(0.5**31) + "\n"


def test_crosscheck_file_passes(example_file, capsys):
    code, out, _ = run_cli(["crosscheck", example_file], capsys)
    assert code == 0
    assert "PASS" in out
    assert [line.split()[0] for line in out.splitlines()[:-1]] == [
        "oracle", "qbat", "qb2",
    ]


def test_crosscheck_zero_tolerance_fails(example_file, capsys):
    code, out, _ = run_cli(
        ["crosscheck", example_file, "--tolerance", "0"], capsys
    )
    assert code == 4
    assert "FAIL" in out


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_crosscheck_rejects_bad_tolerance(example_file, tolerance):
    with pytest.raises(SystemExit) as err:
        main(["crosscheck", example_file, "--tolerance", tolerance])
    assert err.value.code == 2


def test_crosscheck_generator_mode(tmp_path, capsys):
    code, text, _ = run_cli(
        ["generate", "--family", "ladder", "--k", "3", "--p", "0.9"], capsys
    )
    assert code == 0
    path = tmp_path / "ladder-3.net"
    path.write_text(text)
    code, out, _ = run_cli(["crosscheck", str(path)], capsys)
    assert code == 0
    assert "PASS" in out


def test_crosscheck_needs_some_network(capsys):
    with pytest.raises(SystemExit) as err:
        main(["crosscheck"])
    assert err.value.code == 2


def test_crosscheck_refuses_oversized_networks(tmp_path, capsys):
    net = build(GeneratorSpec("bridge-chain", 5, 0.9))
    path = tmp_path / "big.net"
    path.write_text(format_network(net))
    code, _, err = run_cli(["crosscheck", str(path)], capsys)
    assert code == 3
    assert "cap" in err
    assert "qb2 answers when its widest stage has at most 30 arcs" in err


def test_bench_csv_output(capsys):
    code, out, _ = run_cli(
        [
            "bench", "--family", "ladder", "--k-min", "1", "--k-max", "2",
            "--p", "0.9", "--backends", "qb2",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0].split(",")[:4] == ["family", "k", "nodes", "arcs"]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0]["family"] == "ladder"
    assert rows[0]["status"] == "ok"
    assert rows[0]["backend"] == "qb2"
    assert float(rows[0]["reliability"]) == pytest.approx(0.97848, abs=1e-9)


def test_bench_json_output(capsys):
    code, out, _ = run_cli(
        [
            "bench", "--family", "grid", "--k-min", "2", "--k-max", "2",
            "--p", "0.5", "--backends", "oracle,qb2", "--json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["backend"] for r in rows] == ["oracle", "qb2"]
    assert rows[0]["reliability"] == rows[1]["reliability"]


def test_bench_json_keeps_numbers(capsys):
    code, out, _ = run_cli(
        [
            "bench", "--family", "series", "--k-min", "1", "--k-max", "2",
            "--p", "0.3", "--backends", "qb2", "--json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["k"] for row in rows] == [1, 2]
    for row in rows:
        network = build(GeneratorSpec("series", row["k"], 0.3))
        assert row["reliability"] == run_backend(network, "qb2").reliability
        assert isinstance(row["wall_time_s"], float)


def test_bench_rejects_unknown_backend(capsys):
    code, _, err = run_cli(
        [
            "bench", "--family", "series", "--k-min", "1", "--k-max", "1",
            "--p", "0.5", "--backends", "qb2,fp",
        ],
        capsys,
    )
    assert code == 2
    assert "unknown backend" in err


def test_bench_rejects_a_repeated_backend(capsys):
    code, out, err = run_cli(
        [
            "bench", "--family", "series", "--k-min", "1", "--k-max", "1",
            "--p", "0.5", "--backends", "qb2,oracle,qb2",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "relengine: backend 'qb2' given twice\n"


@pytest.mark.parametrize("budget", ["0", "-1", "nan", "soon"])
def test_bench_rejects_bad_budget(budget):
    with pytest.raises(SystemExit) as err:
        main([
            "bench", "--family", "series", "--k-min", "1", "--k-max", "1",
            "--p", "0.5", "--budget", budget,
        ])
    assert err.value.code == 2


def test_bench_rejects_empty_sweep(capsys):
    code, _, err = run_cli(
        [
            "bench", "--family", "series", "--k-min", "3", "--k-max", "1",
            "--p", "0.5", "--backends", "qb2",
        ],
        capsys,
    )
    assert code == 2


def test_generate_round_trips_through_compute(tmp_path, capsys):
    code, out, _ = run_cli(
        ["generate", "--family", "bridge-chain", "--k", "1", "--p", "0.9"],
        capsys,
    )
    assert code == 0
    net = parse_network(out)
    assert net == build(GeneratorSpec("bridge-chain", 1, 0.9))
    path = tmp_path / "roundtrip.net"
    path.write_text(out)
    code, json_out, _ = run_cli(["compute", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(json_out)["network_digest"] == network_digest(net)


def test_generate_is_byte_identical(capsys):
    argv = ["generate", "--family", "grid", "--k", "3", "--p", "0.8", "--seed", "7"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second
    assert "seed=7" in first[1]
    comment = next(line for line in first[1].splitlines() if line.startswith("#"))
    assert "p=" not in comment


def test_generate_rejects_bad_size(capsys):
    code, _, err = run_cli(
        ["generate", "--family", "series", "--k", "0", "--p", "0.5"], capsys
    )
    assert code == 1
    assert "at least 1" in err


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("p", ["1.5", "nan"])
def test_generator_commands_reject_bad_probability(capsys, command, p):
    size = ["--k-min", "2", "--k-max", "2"] if command == "bench" else ["--k", "2"]
    argv = [command, "--family", "series", *size, "--p", p]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"relengine: arc 1 probability {p} outside [0, 1]\n"
    # a seed draws every arc's probability, but p must still be one
    code, out, err = run_cli(argv + ["--seed", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"relengine: probability p={p} outside [0, 1]\n"


def test_parser_lists_all_subcommands():
    helptext = build_parser().format_help()
    for name in ("compute", "explain", "crosscheck", "bench", "generate"):
        assert name in helptext


def test_parser_pins_every_subcommands_options():
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: [
            action.option_strings[0] for action in parser._actions
            if action.option_strings and action.dest != "help"
        ]
        for name, parser in subcommands.choices.items()
    }
    assert options == {
        "compute": ["--backend", "--json", "--budget"],
        "explain": [],
        "crosscheck": ["--tolerance"],
        "bench": [
            "--family", "--k-min", "--k-max", "--p", "--backends", "--budget", "--seed", "--json",
        ],
        "generate": ["--family", "--k", "--p", "--seed"],
    }
    assert sum(map(len, options.values())) == 16


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]  # the text inside each code fence
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("relengine ")
    ]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        if ">" in argv:
            argv = argv[: argv.index(">")]
        parser.parse_args(argv[1:])


def test_console_script_entry_point(tmp_path):
    # the child imports the package this test imported, installed or not
    paths = [str(Path(relengine.__file__).resolve().parents[1])]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    generated = subprocess.run(
        [
            sys.executable, "-m", "relengine.cli",
            "generate", "--family", "series", "--k", "3", "--p", "0.9",
        ],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    path = tmp_path / "series.net"
    path.write_text(generated.stdout)
    computed = subprocess.run(
        [sys.executable, "-m", "relengine.cli", "compute", str(path)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert computed.stdout == "0.7290000000\n"
