import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"


def load_script():
    spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ab_args(change, backend="qbat", workload="chains"):
    return [str(ROOT), str(change), "--workload", workload, "--backend", backend,
            "--rounds", "2"]


def edited_copy(tmp_path, module, old, new):
    """This checkout's package under tmp_path, with `old` replaced by `new` in one module."""
    copy = tmp_path / "copy"
    shutil.copytree(
        ROOT / "src" / "relengine", copy / "src" / "relengine",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    path = copy / "src" / "relengine" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return copy


def test_checkout_against_itself_agrees(capsys):
    assert load_script().main(ab_args(ROOT)) == 0
    out = capsys.readouterr().out
    assert "instances agree (answers and counters)" in out
    assert "change won" in out


def test_shifted_answer_is_named(tmp_path, capsys):
    ab_inprocess = load_script()
    answer = "return total + tail_mass_above(probs, hi)"
    shifted = edited_copy(tmp_path, "quickbat.py", answer, answer + " + 1e-9")

    assert ab_inprocess.main(ab_args(shifted)) == 1
    first = next(
        inst for inst in ab_inprocess.workloads.build("chains", 1)
        if "qbat" in inst.backends
    )
    out = capsys.readouterr().out
    assert out.startswith(f"{first.label} (qbat) differs:\n")
    assert "agree" not in out


def test_changed_tie_rule_is_named_by_its_decomposition(tmp_path, capsys):
    # self_adjust's ties going the other way move crossing arcs between
    # stages (series have no arcs inside a region, so theirs stay put);
    # decompositions are compared before answers, so the first chain the
    # rule changes is named by its stage arcs
    ab_inprocess = load_script()
    tie = "pick = left if 2 * b <= count else right"
    flipped = edited_copy(
        tmp_path, "decompose.py", tie, "pick = right if 2 * b <= count else left"
    )

    assert ab_inprocess.main(ab_args(flipped, "qb2")) == 1
    out = capsys.readouterr().out
    assert out.startswith("ladder-100 (qb2) decomposition differs at stage_arcs[")
    assert "agree" not in out and "change won" not in out
    assert ab_inprocess.main(ab_args(ROOT, "qb2", "grid")) == 0
    assert "instances agree (answers, counters and decompositions)" in capsys.readouterr().out


def test_solve_rates_follow_perfbench():
    # three passes over two instances: medians 0.1 and 0.3 s
    passes = [[0.1, 0.5], [0.2, 0.3], [0.1, 0.2]]
    per_s, p50 = load_script().solve_rates(passes)
    assert per_s == 2 / (0.1 + 0.3)
    assert p50 == (0.1 + 0.3) / 2


def test_rates_are_printed_per_side(capsys):
    assert load_script().main(ab_args(ROOT, "qb2", "grid")) == 0
    out = capsys.readouterr().out
    for side in ("parent", "change"):
        line = next(line for line in out.splitlines() if line.startswith(f"{side} qb2."))
        assert "qb2.solves_per_s " in line and "qb2.solve_s.p50 " in line
    assert "change/parent solves_per_s " in out
