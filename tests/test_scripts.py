"""Smoke test: every experiment script runs end to end on tiny arguments and
prints its summary."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"

# script -> (argv for a tmp directory, pattern its stdout must match)
CASES = {
    "make_demo_dataset": (
        lambda tmp: ["--n-pictures", "12", "--out", str(tmp / "demo.jsonl")],
        r"wrote 12 records to .*demo\.jsonl",
    ),
    "run_simulation": (
        lambda tmp: ["--out-dir", str(tmp)],
        r"straight_line: 120 steps.*\nleft_cluster: 700 steps.*\nobstacle: 120 steps",
    ),
    "run_threshold_experiment": (
        lambda tmp: ["--n-pictures", "40", "--grid-steps", "3", "--curve-out", str(tmp / "curve.csv")],
        # the GA's training accuracy, recomputed by the scorer, is the same number
        r"ga: +accuracy=(\d\.\d{4}) [^\n]*\n(?:.*\n)*ga training accuracy recheck: \1\n",
    ),
    "train_face_models": (
        lambda tmp: ["--n-train", "64", "--n-held", "32", "--epochs", "1", "--out", str(tmp / "face.tnet")],
        r"trained 1 epochs .*\ntrain accuracy \d\.\d{4} \(noisy labels\), held-out accuracy \d\.\d{4}",
    ),
    "train_picture_cnn": (
        lambda tmp: ["--n-pictures", "40", "--epochs", "1", "--out", str(tmp / "picture.tnet")],
        r"trained 1 epochs .*\nheld-out accuracy \d\.\d{4} on 8 pictures",
    ),
}


def test_every_script_has_a_case():
    assert sorted(p.stem for p in SCRIPTS_DIR.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs_on_tiny_arguments(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS_DIR / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    make_argv, summary = CASES[name]
    script.main(make_argv(tmp_path))
    out = capsys.readouterr().out
    assert re.search(summary, out), out
