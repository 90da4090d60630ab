"""The verdict of ``tools/same_bytes.py`` on matrix outputs built by hand in
the tool's layout: a training output written once, and generate outputs
written with every usable CPU and again on one CPU.  A forked output that
differs from its one-CPU twin, or a failed command, gates only in the
revision checked."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
TRAIN_METRICS = "case/train-f64/metrics.jsonl"
ONE_CPU_PRED = "generate/plain-one-cpu/pred.jsonl"
FORKED_F32_REPORT = "generate/f32-all-cpus/report.jsonl"


@pytest.fixture(scope="module")
def same_bytes():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # the tool puts the repository root first
    return module


def matrix(root: Path, changes=None) -> Path:
    """A matrix output with one training output and two generate pairs,
    every twin equal unless ``changes`` gives a file other text, or None for
    no file."""
    files = {
        "commands.txt": "$ train\nexit 0\n",
        TRAIN_METRICS: '{"loss": 1.5}\n',
        "case/train-f64/checkpoint-final.bin": "QRCK",
    }
    for variant in ("plain", "f32"):
        for side, manifest in (("all-cpus", "/tmp/a"), ("one-cpu", "/tmp/b")):
            out = f"generate/{variant}-{side}"
            files[f"{out}/pred.jsonl"] = f'{{"id": "r1", "variant": "{variant}"}}\n'
            files[f"{out}/report.jsonl"] = '{"bleu": 0.5}\n'
            files[f"{out}/manifest-generate.json"] = manifest  # never compared
    files.update(changes or {})
    for name, text in files.items():
        if text is not None:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    return root


def verdict(same_bytes, tmp_path, against=None, rev=None, **failed):
    return same_bytes.verdict(matrix(tmp_path / "against", against),
                              matrix(tmp_path / "rev", rev), **failed)


def test_equal_twins_and_revisions_pass(same_bytes, tmp_path, capsys):
    assert verdict(same_bytes, tmp_path) == 0
    out = capsys.readouterr().out
    assert "| case/train-f64 | 2 | 2 |" in out and "11 of 11 files equal" in out
    assert "| generate/plain | 2 | equal |" in out
    assert "| generate/f32 | 2 | equal |" in out
    assert out.count("2 of 2 pairs equal") == 2


def test_one_cpu_file_that_differs_in_rev_gates(same_bytes, tmp_path, capsys):
    assert verdict(same_bytes, tmp_path, rev={ONE_CPU_PRED: '{"id": "r2"}\n'}) == 3
    out = capsys.readouterr().out
    assert "| generate/plain | 2 | differs: pred.jsonl |" in out
    assert "1 of 2 pairs equal" in out


@pytest.mark.parametrize("missing", [ONE_CPU_PRED, FORKED_F32_REPORT])
def test_missing_twin_file_in_rev_gates(same_bytes, tmp_path, capsys, missing):
    assert verdict(same_bytes, tmp_path, rev={missing: None}) == 3
    side = "-all-cpus" if missing == ONE_CPU_PRED else "-one-cpu"
    assert f"differs: {Path(missing).name} (only in {side})" in capsys.readouterr().out


def test_missing_twin_directory_in_rev_gates(same_bytes, tmp_path, capsys):
    one_cpu = "generate/plain-one-cpu"
    rev = {f"{one_cpu}/{name}": None
           for name in ("pred.jsonl", "report.jsonl", "manifest-generate.json")}
    assert verdict(same_bytes, tmp_path, rev=rev) == 3
    assert ("| generate/plain | 2 | differs: pred.jsonl (only in -all-cpus), "
            "report.jsonl (only in -all-cpus) |") in capsys.readouterr().out


def test_failed_command_in_rev_gates(same_bytes, tmp_path, capsys):
    assert verdict(same_bytes, tmp_path, failed_rev=1) == 3
    assert "--rev: 1 commands failed" in capsys.readouterr().out


@pytest.mark.parametrize("defect", [
    {"against": {ONE_CPU_PRED: '{"id": "r2"}\n'}},
    {"against": {FORKED_F32_REPORT: None}},
    {"failed_against": 2},
])
def test_defect_of_against_only_informs(same_bytes, tmp_path, defect):
    assert verdict(same_bytes, tmp_path, **defect) == 1


def test_difference_between_revisions_only_informs(same_bytes, tmp_path, capsys):
    assert verdict(same_bytes, tmp_path, rev={TRAIN_METRICS: '{"loss": 1.25}\n'}) == 1
    out = capsys.readouterr().out
    assert f"differs: {TRAIN_METRICS}" in out and "| case/train-f64 | 2 | 1 |" in out
    assert out.count("2 of 2 pairs equal") == 2


def test_generate_bytes_moved_between_revisions_only_inform(same_bytes, tmp_path, capsys):
    moved = '{"bleu": 0.75}\n'
    rev = {f"generate/f32-{side}/report.jsonl": moved for side in ("all-cpus", "one-cpu")}
    assert verdict(same_bytes, tmp_path, rev=rev) == 1
    out = capsys.readouterr().out
    assert "| generate/f32-all-cpus | 2 | 1 |" in out
    assert "| generate/f32-one-cpu | 2 | 1 |" in out
    assert out.count("2 of 2 pairs equal") == 2
