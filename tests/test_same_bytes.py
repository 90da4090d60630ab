"""The verdict of ``tools/same_bytes.py`` on matrix outputs built by hand:
a forked output that differs from its one-CPU twin, or a failed command,
gates only in the revision checked."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
FORKED_METRICS = "case/train-f64-all-cpus/metrics.jsonl"
ONE_CPU_METRICS = "case/train-f64-one-cpu/metrics.jsonl"
ONE_CPU_PRED = "generate/plain-one-cpu/pred.jsonl"


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
    """A matrix output with one training and one generate pair, every twin
    equal unless ``changes`` gives a file other text, or None for no file."""
    files = {
        "commands.txt": "$ train\nexit 0\n",
        FORKED_METRICS: '{"loss": 1.5}\n', ONE_CPU_METRICS: '{"loss": 1.5}\n',
        "case/train-f64-all-cpus/checkpoint-final.bin": "QRCK",
        "case/train-f64-one-cpu/checkpoint-final.bin": "QRCK",
        "generate/plain-all-cpus/pred.jsonl": '{"id": "r1"}\n',
        ONE_CPU_PRED: '{"id": "r1"}\n',
        "generate/plain-all-cpus/manifest-generate.json": "/tmp/a",
        "generate/plain-one-cpu/manifest-generate.json": "/tmp/b",  # never compared
    }
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
    assert "| case/train-f64 | 2 | equal |" in out
    assert out.count("2 of 2 pairs equal") == 2


def test_one_cpu_file_that_differs_in_rev_gates(same_bytes, tmp_path, capsys):
    assert verdict(same_bytes, tmp_path, rev={ONE_CPU_METRICS: '{"loss": 1.6}\n'}) == 3
    assert "| case/train-f64 | 2 | differs: metrics.jsonl |" in capsys.readouterr().out


@pytest.mark.parametrize("missing", [ONE_CPU_PRED, FORKED_METRICS])
def test_missing_twin_file_in_rev_gates(same_bytes, tmp_path, capsys, missing):
    assert verdict(same_bytes, tmp_path, rev={missing: None}) == 3
    side = "-all-cpus" if missing == ONE_CPU_PRED else "-one-cpu"
    assert f"differs: {Path(missing).name} (only in {side})" in capsys.readouterr().out


def test_missing_twin_directory_in_rev_gates(same_bytes, tmp_path, capsys):
    rev = {ONE_CPU_PRED: None, "generate/plain-one-cpu/manifest-generate.json": None}
    assert verdict(same_bytes, tmp_path, rev=rev) == 3
    assert "| generate/plain | 1 | differs: pred.jsonl (only in -all-cpus) |" in (
        capsys.readouterr().out)


def test_failed_command_in_rev_gates(same_bytes, tmp_path):
    assert verdict(same_bytes, tmp_path, failed_rev=1) == 3


@pytest.mark.parametrize("defect", [
    {"against": {ONE_CPU_METRICS: '{"loss": 1.6}\n'}},
    {"against": {ONE_CPU_PRED: None}},
    {"failed_against": 2},
])
def test_defect_of_against_only_informs(same_bytes, tmp_path, defect):
    assert verdict(same_bytes, tmp_path, **defect) == 1


def test_difference_between_revisions_only_informs(same_bytes, tmp_path, capsys):
    moved = '{"loss": 1.25}\n'
    assert verdict(same_bytes, tmp_path,
                   rev={FORKED_METRICS: moved, ONE_CPU_METRICS: moved}) == 1
    out = capsys.readouterr().out
    assert f"differs: {FORKED_METRICS}" in out and "| case/train-f64-one-cpu | 2 | 1 |" in out
