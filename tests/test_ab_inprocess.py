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


def ab_args(change):
    return [str(ROOT), str(change), "--workload", "chains", "--backend", "qbat",
            "--rounds", "2"]


def test_checkout_against_itself_agrees(capsys):
    assert load_script().main(ab_args(ROOT)) == 0
    out = capsys.readouterr().out
    assert "instances agree (answers and counters)" in out
    assert "change won" in out


def test_shifted_answer_is_named(tmp_path, capsys):
    ab_inprocess = load_script()
    shifted = tmp_path / "shifted"
    shutil.copytree(
        ROOT / "src" / "relengine", shifted / "src" / "relengine",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    quickbat = shifted / "src" / "relengine" / "quickbat.py"
    answer = "return total + tail_mass_above(probs, hi)"
    text = quickbat.read_text()
    assert text.count(answer) == 1
    quickbat.write_text(text.replace(answer, answer + " + 1e-9"))

    assert ab_inprocess.main(ab_args(shifted)) == 1
    first = next(
        inst for inst in ab_inprocess.workloads.build("chains", 1)
        if "qbat" in inst.backends
    )
    out = capsys.readouterr().out
    assert out.startswith(f"{first.label} (qbat) differs:\n")
    assert "agree" not in out
