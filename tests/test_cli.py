import errno
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qrewrite import cli, dataio, metrics, training
from qrewrite import model as model_module
from qrewrite.cli import main
from qrewrite.docgraph import make_step_inputs
from qrewrite.errors import ShapeError
from qrewrite.model import QuestionRewriter, StepInput
from qrewrite.vocab import Vocab

from test_dataio import corrupt_checkpoint
from test_model import BOS, EOS, pack_examples, pack_model


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small arranged dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli-data")
    assert run("gen-data", "--out", root, "--hops", "1,2", "--train", "30",
               "--valid", "6", "--test", "6", "--entities", "30", "--seed", "3") == 0
    for split in ("train", "valid", "test"):
        src = root / f"{split}.jsonl"
        dst = root / f"{split}.arr.jsonl"
        assert run("arrange", "--in", src, "--out", dst) == 0
        dst.replace(src)
    return root


@pytest.fixture(scope="module")
def train_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "d_model": 16, "n_heads": 2, "d_ff": 24,
        "n_enc_layers": 1, "n_dec_layers": 1,
        "lr_alpha": 1e-3, "warmup_steps": 10, "batch_size": 8,
        "epochs_per_main_complexity": 1, "curriculum": "adaptive",
        "val_max_examples": 4, "seed": 5,
    }))
    assert run("train", "--config", cfg, "--data", data_dir, "--out", out) == 0
    return out


class TestGenData:
    def test_outputs_present(self, data_dir):
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.txt",
                     "manifest-gen-data.json"):
            assert (data_dir / name).exists()

    def test_counts(self, data_dir):
        assert len(dataio.read_records(data_dir / "train.jsonl")) == 60
        assert len(dataio.read_records(data_dir / "test.jsonl")) == 12

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-data", "--out", out, "--hops", "1", "--train", "5",
                       "--valid", "2", "--test", "2", "--entities", "20",
                       "--seed", "9") == 0
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


# SHA-256 of what gen-data (hops 1,2,3 on seeds 4 and 21, hops 1,2,3,4 on
# seed 11, small counts) and arrange over each of its splits write, recorded
# before the data stage was optimized: the optimization must not move a byte
DATA_STAGE_DIGESTS = {
    (4, "test.arr.jsonl"): "453e669747ae552cff5eb6e8dc852b34c65916cf6e739a149c559e8716e8decd",
    (4, "test.jsonl"): "7c664e7df5c7bd79fc456900e0bf76ca23d7d9aa026b55247dce01be2c790f62",
    (4, "train.arr.jsonl"): "0292e482ec9e2c3d32420e8cf9535f47c4f14f050299450e36b47a96a9eaaa0b",
    (4, "train.jsonl"): "794d9b2763aa3284ed47c3e129b307de86d7744cd8dddf0502a0a60beb48c058",
    (4, "valid.arr.jsonl"): "a798342a20ea1616406187a82c9b7def8cc286ad4bbed2e944e5fece1e832b34",
    (4, "valid.jsonl"): "32e56a7ef1191647849d4d6beab6ba6a468ddb6b9330cccc3bc10ae82a081054",
    (4, "vocab.txt"): "b8bdb30bb3ea60b65d338edb0c307b53e0c6c071ea5024228fa35f89634c1ff3",
    (21, "test.arr.jsonl"): "5b2f26ff1384d2f5fa017f1ec60030b83bfb921b63a19b73175e40aa70b1ace5",
    (21, "test.jsonl"): "73f49ca942a5f571f38a740022de802810dbfcaca5d0114931083edec90ee343",
    (21, "train.arr.jsonl"): "41a84ebb1ecdd9feb5a37002dced948305d2eca0bda557b28bb9268cf34e0178",
    (21, "train.jsonl"): "b6314b22ae026b9098f0bc392c85f25400b30ae76426060ab0db647d3ba2cca8",
    (21, "valid.arr.jsonl"): "8a695cec6d7389d2dc55359300f4d80a58db7067a97709a22d6107c3ec713950",
    (21, "valid.jsonl"): "ee65e4f24b036d7160428ffdcf02a07ed260d8dedda04725d5c2dcf400680575",
    (21, "vocab.txt"): "b3afd093945279dd5809204b9ec59869afb1ac32d395d45c75b530c9c2ab0c51",
    (11, "test.arr.jsonl"): "db9a9810fcd1690c0d9385b2ed8f06cce26f1e845081e92c31dc6c0d4ad7e857",
    (11, "test.jsonl"): "e79f2417fce2b3bc87c714ab95ad4ca83f57fbbd1b6ed0b9c696a3d1fe89da1a",
    (11, "train.arr.jsonl"): "1ab76b8e419b95503d1848e2d3a25c53d179b932eedd58d36a8d0631c3591432",
    (11, "train.jsonl"): "005f2a2a5213d0b9ba21b5aee96556cd1bd0af7cf7b1e959d66093a48db12de2",
    (11, "valid.arr.jsonl"): "dcd6cd0e21ea24b94bbd1f3a21f9d53d618719eac9b23f73f2b59897cc08a93b",
    (11, "valid.jsonl"): "6e31a78dbef8d52f33c4471a7c651eed1f7380b922c12456b237ee74d9834966",
    (11, "vocab.txt"): "964865f823c04d95fca305ce47eafc4dff83a8e240da40295081c491001ddcd5",
}


@pytest.mark.parametrize("seed", [4, 21, 11])
def test_data_stage_bytes_are_pinned(seed, tmp_path):
    hops = "1,2,3,4" if seed == 11 else "1,2,3"
    assert run("gen-data", "--out", tmp_path, "--hops", hops, "--train", "6",
               "--valid", "2", "--test", "3", "--entities", "30", "--seed", seed) == 0
    for split in ("train", "valid", "test"):
        assert run("arrange", "--in", tmp_path / f"{split}.jsonl",
                   "--out", tmp_path / f"{split}.arr.jsonl") == 0
    got = {(seed, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir() if not path.name.startswith("manifest")}
    assert got == {k: v for k, v in DATA_STAGE_DIGESTS.items() if k[0] == seed}


# SHA-256 of what gen-data writes at the settings the benchmark's generate
# workload makes its data with (perfbench/workloads.py FIXTURE_DATA), and of
# the arranged test split it decodes, recorded before the data stage drew
# records as structure: the fixture checkpoint was trained on these records
FIXTURE_DATA_DIGESTS = {
    "train.jsonl": "6b61aa6195acd1b587c33538affda0543b81492329a303e9c6b3d8a9cee8f95a",
    "test.jsonl": "9517e06bdc6fe5c1f636f43bdaa1f57fb6eac6daf01bbf2511bf43d1ee37ad89",
    "test.arr.jsonl": "d9b937635e994a11ad46e48da9fa89009d00252f3eb289caa4b97e9107333bb1",
}


def test_generate_workload_data_is_pinned(tmp_path):
    assert run("gen-data", "--out", tmp_path, "--hops", "1,2,3", "--train", "200",
               "--valid", "8", "--test", "100", "--entities", "40",
               "--seed", "2024") == 0
    fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"
    assert (tmp_path / "vocab.txt").read_bytes() == (fixture / "vocab.txt").read_bytes()
    assert run("arrange", "--in", tmp_path / "test.jsonl",
               "--out", tmp_path / "test.arr.jsonl") == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in FIXTURE_DATA_DIGESTS} == FIXTURE_DATA_DIGESTS


@pytest.mark.parametrize("flag, value", [
    ("--hops", "x"),
    ("--hops", ","),
    ("--hops", "1,1"),
    ("--hops", "0"),
    ("--hops", "5"),
    ("--seed", "-1"),
    ("--entities", "0"),
    ("--entities", "-5"),
])
def test_malformed_gen_data_arguments_are_data_errors(flag, value, tmp_path, capsys):
    flags = {"--hops": "1", "--seed": "0", "--entities": "20", flag: value}
    out = tmp_path / "data"
    assert run("gen-data", "--out", out, "--train", "4", "--valid", "2",
               "--test", "2",
               *(arg for pair in flags.items() for arg in pair)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {flag} ") and len(err.splitlines()) == 1
    assert not out.exists()


class TestArrange:
    def test_bad_record_skipped_with_summary(self, tmp_path, capsys):
        rec = {
            "id": "broken", "hops": 2, "answer": "a",
            "question": "q ?",
            "documents": [
                {"title": "t", "text": "alpha beta", "is_answer_doc": True,
                 "entities": ["alpha"]},
                {"title": "u", "text": "gamma delta", "is_answer_doc": False,
                 "entities": ["gamma"]},
            ],
        }
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        dataio.write_records(src, [rec])
        assert run("arrange", "--in", src, "--out", dst) == 0
        assert dataio.read_records(dst) == []
        assert "skipped 1" in capsys.readouterr().out

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text("")
        dst = tmp_path / "out.jsonl"
        assert run("arrange", "--in", src, "--out", dst) == 0
        assert "arranged 0" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("arrange", "--in", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "o.jsonl") == 2


@pytest.mark.parametrize("command", ["arrange", "generate"])
def test_non_object_record_is_data_error(command, data_dir, train_dir, tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text((data_dir / "test.jsonl").read_text() + "[1, 2]\n")
    n_lines = len(src.read_text().splitlines())
    if command == "arrange":
        argv = ["arrange", "--in", src]
    else:
        argv = ["generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                "--data", src, "--vocab", data_dir / "vocab.txt"]
    assert run(*argv, "--out", tmp_path / "out.jsonl") == 2
    err = capsys.readouterr().err
    assert f"in.jsonl:{n_lines}: expected a JSON object" in err
    assert "Traceback" not in err


# a record field of the wrong JSON type, set on an arranged record
WRONG_TYPES = {
    "document_not_object": lambda rec: rec["documents"].__setitem__(0, 5),
    "title_not_string": lambda rec: rec["documents"][0].update(title=7),
    "answer_not_string": lambda rec: rec.update(answer=["a"]),
    "question_not_string": lambda rec: rec.update(question=3),
    "arrangement_list": lambda rec: rec.update(arrangement=[0, 1]),
    "entity_not_string": lambda rec: rec["documents"][0].update(entities=[1]),
}


# an entity that is not tokens joined by single spaces, set on the last
# arranged record, a 2-hop one
MALFORMED_ENTITIES = {
    "blank_entity": lambda rec: [d["entities"].append("") for d in rec["documents"]],
    "padded_entity": lambda rec: rec["documents"][0]["entities"].append("film_3 "),
    "blank_bridge": lambda rec: rec["arrangement"].update(bridges=[[""]]),
}


@pytest.mark.parametrize("defect", sorted(WRONG_TYPES))
def test_wrongly_typed_field_is_data_error(defect, data_dir, train_dir, tmp_path, capsys):
    check_record_defect(WRONG_TYPES[defect], 1, data_dir, train_dir, tmp_path, capsys)


@pytest.mark.parametrize("defect", sorted(MALFORMED_ENTITIES))
def test_malformed_entity_is_data_error(defect, data_dir, train_dir, tmp_path, capsys):
    check_record_defect(MALFORMED_ENTITIES[defect], -1, data_dir, train_dir, tmp_path,
                        capsys)


def check_record_defect(defect, index, data_dir, train_dir, tmp_path, capsys):
    # arrange skips the record, generate emits its empty prediction with
    # the error, and train exits 2; each names the record
    records = dataio.read_records(data_dir / "test.jsonl")
    defect(records[index])
    rid = records[index]["id"]
    data = tmp_path / "data"
    data.mkdir()
    for name in ("valid.jsonl", "vocab.txt"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    dataio.write_records(data / "train.jsonl", records)
    capsys.readouterr()

    assert run("arrange", "--in", data / "train.jsonl", "--out", tmp_path / "a.jsonl") == 0
    out, err = capsys.readouterr()
    assert "skipped 1" in out and f"record {rid!r}" in err
    assert [r["id"] for r in dataio.read_records(tmp_path / "a.jsonl")] == [
        r["id"] for r in records if r["id"] != rid]

    assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
               "--data", data / "train.jsonl", "--vocab", data / "vocab.txt",
               "--out", tmp_path / "p.jsonl") == 0
    preds = dataio.read_records(tmp_path / "p.jsonl")
    assert [p["id"] for p in preds] == [r["id"] for r in records]
    assert preds[index]["prediction"] == "" and f"record {rid!r}" in preds[index]["error"]
    assert all("error" not in p for p in preds if p["id"] != rid)
    assert "Traceback" not in capsys.readouterr().err

    assert run("train", "--data", data, "--out", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"record {rid!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["records", "config", "vocab"])
def test_non_utf8_file_is_data_error(kind, data_dir, train_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'{"id": "\xff"}\n')
    argv = {
        "records": ["arrange", "--in", bad, "--out", tmp_path / "o.jsonl"],
        "config": ["train", "--config", bad, "--data", data_dir, "--out", tmp_path / "run"],
        "vocab": ["generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                  "--data", data_dir / "test.jsonl", "--vocab", bad,
                  "--out", tmp_path / "p.jsonl"],
    }[kind]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert "bad.txt: not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("defect", ["unknown_config_key", "missing_vocab",
                                    "blank_vocab_line", "empty_train"])
def test_rejected_train_leaves_no_run_directory(defect, data_dir, tmp_path, capsys):
    data, config = tmp_path / "data", tmp_path / "config.json"
    data.mkdir()
    for name in ("train.jsonl", "valid.jsonl", "vocab.txt"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    config.write_text(json.dumps({"seed": 1}))
    if defect == "unknown_config_key":
        config.write_text(json.dumps({"bogus": 1}))
    elif defect == "missing_vocab":
        (data / "vocab.txt").unlink()
    elif defect == "empty_train":
        (data / "train.jsonl").write_text("")
    else:  # a blank line would load as the token '' and shift every later id
        tokens = (data / "vocab.txt").read_text().splitlines()
        (data / "vocab.txt").write_text("\n".join([*tokens[:8], "", *tokens[8:]]) + "\n")
    assert run("train", "--config", config, "--data", data,
               "--out", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and (defect != "blank_vocab_line" or "vocab.txt:9: " in err)
    assert defect != "empty_train" or "train.jsonl: no records" in err
    assert not (tmp_path / "run").exists()


def test_truncated_checkpoint_is_data_error(data_dir, train_dir, tmp_path, capsys):
    ck = tmp_path / "checkpoint.bin"
    ck.write_bytes((train_dir / "checkpoint-final.bin").read_bytes()[:-3])
    assert run("generate", "--checkpoint", ck, "--data", data_dir / "test.jsonl",
               "--vocab", data_dir / "vocab.txt", "--out", tmp_path / "p.jsonl") == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin: truncated" in err and "Traceback" not in err


def test_checkpoint_header_without_key_is_data_error(data_dir, train_dir, tmp_path,
                                                     capsys):
    ck = tmp_path / "checkpoint.bin"
    ck.write_bytes((train_dir / "checkpoint-final.bin").read_bytes())
    corrupt_checkpoint(ck, "no_vocab_sha256")
    assert run("generate", "--checkpoint", ck, "--data", data_dir / "test.jsonl",
               "--vocab", data_dir / "vocab.txt", "--out", tmp_path / "p.jsonl") == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin: checkpoint header lacks 'vocab_sha256'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("defect", [
    "invalid_config", "tensor_name_mismatch", "tensor_without_name",
    "bool_tensor_shape", "tensors_5", "tensors_null", "int_vocab_sha256",
    "float_d_model", "float_max_len", "string_mode", "huge_d_model", "huge_layer_count",
    "huge_max_len", "overflowing_shape", "repeated_tensor_name",
])
def test_checkpoint_header_that_misfits_the_model_is_data_error(
    data_dir, train_dir, tmp_path, capsys, defect
):
    ck = tmp_path / "checkpoint.bin"
    ck.write_bytes((train_dir / "checkpoint-final.bin").read_bytes())
    corrupt_checkpoint(ck, defect)
    assert run("generate", "--checkpoint", ck, "--data", data_dir / "test.jsonl",
               "--vocab", data_dir / "vocab.txt", "--out", tmp_path / "p.jsonl") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert "checkpoint.bin: " in err and "Traceback" not in err


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


def tiny_run(tmp_path, n_train, hops="1", **config):
    """An arranged dataset of ``n_train`` training, 2 validation and 1 test
    records at ``hops``, and a d_model-16 config with ``config`` on top."""
    data = tmp_path / "data"
    assert run("gen-data", "--out", data, "--hops", hops, "--train", n_train, "--valid", "2",
               "--test", "1", "--entities", "12", "--seed", "1") == 0
    for split in ("train", "valid", "test"):
        assert run("arrange", "--in", data / f"{split}.jsonl", "--out", data / "a.jsonl") == 0
        (data / "a.jsonl").replace(data / f"{split}.jsonl")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d_model": 16, "n_heads": 2, "d_ff": 32, "n_enc_layers": 1,
                               "n_dec_layers": 1, "warmup_steps": 0, "batch_size": 4,
                               **config}))
    return data, cfg


# lr_alpha 1e308 blows the parameters up: on 4 records the first update's
# batch loss is still finite, and validation's first greedy pick after it
# is not; on 8 the second update's batch loss is not
@pytest.mark.parametrize("n_train, diverged", [
    pytest.param(4, "logit nan in a greedy pick", id="4-logit nan in a greedy pick"),
    pytest.param(8, "loss nan at step 1, H=1", id="8-loss nan at step 1"),
])
def test_a_diverged_run_is_one_numeric_failure(n_train, diverged, tmp_path, capsys):
    data, cfg = tiny_run(tmp_path, n_train, lr_alpha=1e308)
    capsys.readouterr()
    assert run("train", "--config", cfg, "--data", data, "--out", tmp_path / "run") == 3
    assert capsys.readouterr().err == f"numeric failure: non-finite {diverged}\n"
    for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=no_constant)


def test_a_run_whose_last_update_diverges_is_one_numeric_failure(tmp_path, capsys):
    # without a validation split nothing runs a forward pass after the one
    # update, which leaves finite parameters up to ~5e307: train checks their
    # squared norm before it writes the last checkpoints
    data, cfg = tiny_run(tmp_path, 4, lr_alpha=1e308)
    (data / "valid.jsonl").unlink()
    capsys.readouterr()
    assert run("train", "--config", cfg, "--data", data, "--out", tmp_path / "run") == 3
    assert capsys.readouterr().err == (
        "numeric failure: non-finite squared parameter norm inf at step 1, H=1\n")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["metrics.jsonl"]


def test_generate_on_a_diverged_checkpoint_is_one_numeric_failure(tmp_path, capsys):
    # a checkpoint of finite parameters scaled up to ~1e300, which train
    # would no longer write: generate's first greedy pick over them is NaN
    data, cfg = tiny_run(tmp_path, 4, lr_alpha=1e-3)
    assert run("train", "--config", cfg, "--data", data, "--out", tmp_path / "run") == 0
    model = dataio.load_model(tmp_path / "run" / "checkpoint-final.bin")
    for p in model.params.values():
        p.data = p.data * 1e300
    dataio.save_checkpoint(tmp_path / "diverged.bin", model,
                           Vocab.load(data / "vocab.txt").sha256())
    capsys.readouterr()
    assert run("generate", "--checkpoint", tmp_path / "diverged.bin",
               "--data", data / "test.jsonl", "--vocab", data / "vocab.txt",
               "--out", tmp_path / "pred.jsonl") == 3
    assert capsys.readouterr().err == "numeric failure: non-finite logit nan in a greedy pick\n"


def test_a_two_hop_dataset_trains_under_standard(tmp_path, capsys):
    # standard trains once at the highest hop count, on the levels present
    # (tests/test_training.py checks that the other curricula still need
    # every level from 1)
    data, cfg = tiny_run(tmp_path, 4, hops="2", lr_alpha=1e-3, curriculum="standard")
    capsys.readouterr()
    assert run("train", "--config", cfg, "--data", data, "--out", tmp_path / "run") == 0
    assert capsys.readouterr().err == ""
    labels = [json.loads(line).get("label") for line in
              (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert [label for label in labels if label] == ["H2"]
    assert (tmp_path / "run" / "checkpoint-final.bin").is_file()


TINY_CONFIG = {
    "d_model": 16, "n_heads": 2, "d_ff": 24, "n_enc_layers": 1, "n_dec_layers": 1,
    "lr_alpha": 1e-3, "warmup_steps": 2, "batch_size": 8,
    "epochs_per_main_complexity": 1, "curriculum": "adaptive", "val_max_examples": 4,
    "seed": 5,
}


def test_four_hop_train_and_generate(tmp_path, monkeypatch):
    data, out = tmp_path / "data", tmp_path / "run"
    assert run("gen-data", "--out", data, "--hops", "1,2,3,4", "--train", "4",
               "--valid", "1", "--test", "2", "--entities", "30", "--seed", "11") == 0
    for split in ("train", "valid", "test"):
        assert run("arrange", "--in", data / f"{split}.jsonl",
                   "--out", data / f"{split}.jsonl") == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    assert run("train", "--config", cfg, "--data", data, "--out", out) == 0

    # one pack holds every test record; it loses two segments at each step
    opened = []
    start_step = QuestionRewriter.start_step

    def spy(self, encoder_output, lens, cache, segments=None):
        opened.append(len(lens))
        return start_step(self, encoder_output, lens, cache, segments)

    monkeypatch.setattr(QuestionRewriter, "start_step", spy)
    preds = [tmp_path / f"pred{i}.jsonl" for i in range(2)]
    for pred in preds:
        assert run("generate", "--checkpoint", out / "checkpoint-final.bin",
                   "--data", data / "test.jsonl", "--vocab", data / "vocab.txt",
                   "--out", pred, "--emit-intermediates") == 0
    assert opened == [8, 6, 4, 2] * 2
    assert preds[0].read_bytes() == preds[1].read_bytes()
    lines = dataio.read_records(preds[0])
    assert sorted(r["hops"] for r in lines) == [1, 1, 2, 2, 3, 3, 4, 4]
    assert all(len(r["intermediates"]) == r["hops"] - 1 for r in lines)

    # each record decoded alone gives its line of the pack
    monkeypatch.undo()
    voc = Vocab.load(data / "vocab.txt")
    model = dataio.load_model(out / "checkpoint-final.bin")
    for rec, line in zip(dataio.read_records(data / "test.jsonl"), lines):
        ex = dataio.arranged_example(rec)
        final, intermediates = training.predict(model, ex, voc)
        assert line["prediction"] == " ".join(final)
        assert line["intermediates"] == [" ".join(q) for q in intermediates]


def test_a_fork_that_fails_runs_in_process(data_dir, tmp_path, monkeypatch, capsys):
    # train validates and generate decodes the 6 test records in 2 packs of
    # 3; with 2 workers allowed but no fork to be had, train tries none and
    # generate tries one for its second pack and decodes it in-process, with
    # the bytes of one process, and reports no data error
    monkeypatch.setattr(model_module, "PACK_SIZE", 3)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "val_max_examples": 6}))

    def outputs(workers):
        monkeypatch.setattr(cli, "_workers", lambda n_jobs: min(n_jobs, workers))
        out = tmp_path / f"run-{workers}"
        assert run("train", "--config", cfg, "--data", data_dir, "--out", out) == 0
        assert run("generate", "--checkpoint", out / "checkpoint-final.bin",
                   "--data", data_dir / "test.jsonl", "--vocab", data_dir / "vocab.txt",
                   "--out", out / "pred.jsonl", "--emit-intermediates") == 0
        return {name: (out / name).read_bytes() for name in (
            "metrics.jsonl", "checkpoint-H1.bin", "checkpoint-H2.bin",
            "checkpoint-final.bin", "pred.jsonl")}

    one = outputs(1)
    open_fds = len(os.listdir("/proc/self/fd"))
    tried = []

    def failing_fork():
        tried.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    assert outputs(2) == one
    records = [json.loads(line) for line in one["metrics.jsonl"].splitlines()]
    assert sum(r["event"] == "validation" for r in records) > 1 and len(tried) == 1
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert "data error" not in capsys.readouterr().err


def test_train_never_forks(data_dir, tmp_path, monkeypatch):
    # a host that looks forkable (two usable CPUs, one thread): validation's
    # 6 records span two packs of 3 and train still tries no fork, while
    # generate tries one for the second of its 2 packs
    monkeypatch.setattr(model_module, "PACK_SIZE", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: ["1"] if path == "/proc/self/task"
                        else listdir(path))
    tried = []

    def failing_fork():
        tried.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "val_max_examples": 6}))
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--data", data_dir, "--out", out) == 0
    assert tried == []
    assert run("generate", "--checkpoint", out / "checkpoint-final.bin",
               "--data", data_dir / "test.jsonl", "--vocab", data_dir / "vocab.txt",
               "--out", out / "pred.jsonl") == 0
    assert tried == [1]


def in_workers(monkeypatch, n_workers):
    """Make ``cli._rewrite_forked`` decode on ``n_workers`` processes (at
    most one per pack), whatever the host's CPUs and threads."""
    monkeypatch.setattr(cli, "_workers", lambda n_packs: min(n_packs, n_workers))


def outcome(fn):
    """What ``fn()`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


# forking under pytest is forced below, so the host's BLAS may run threads
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkedPacks:
    @pytest.fixture(autouse=True)
    def no_child_left(self, monkeypatch):
        monkeypatch.setattr(model_module, "PACK_SIZE", 3)

        def hung(signum, frame):
            raise TimeoutError("forked decoding still waits for a worker after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def examples(self, m, seed=9):
        # 12 examples of 1-4 steps: 4 packs of 3
        rng = np.random.default_rng(seed)
        return [ex for _ in range(2) for ex in pack_examples(rng, m.cfg.vocab_size)]

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_forked_equals_in_process_bit_for_bit(self, n_workers, monkeypatch):
        m = pack_model()
        examples = self.examples(m)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        in_process = m.rewrite_packed(examples, BOS, EOS)
        in_workers(monkeypatch, n_workers)
        forked = cli._rewrite_forked(m, examples, BOS, EOS)
        assert len(forks) == n_workers - 1
        for a, b in zip(in_process, forked, strict=True):
            assert a.intermediate_tokens == b.intermediate_tokens
            assert a.final_tokens == b.final_tokens
            assert a.truncated == b.truncated
        assert any(any(r.truncated) for r in in_process)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_a_failing_pack_fails_alike_in_a_child_or_the_parent(self, n_workers,
                                                                 monkeypatch):
        m = pack_model()
        examples = self.examples(m)
        owned = []
        run_share = cli._run_share
        monkeypatch.setattr(cli, "_run_share",
                            lambda fn, share: owned.append(share) or run_share(fn, share))
        in_process, decoded_here = [], []
        for p in range(4):
            bad = list(examples)
            bad[3 * p + 1] = []  # an example with no steps
            in_workers(monkeypatch, 1)
            in_process.append(outcome(lambda: cli._rewrite_forked(m, bad, BOS, EOS)))
            in_workers(monkeypatch, n_workers)
            owned.clear()
            assert outcome(lambda: cli._rewrite_forked(m, bad, BOS, EOS)) == in_process[p]
            decoded_here.append(p in owned[0])  # or in a child
        assert set(in_process) == {(ShapeError, "rewrite: every example needs a step")}
        assert set(decoded_here) == {True, False}

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_the_first_failing_pack_in_input_order_wins(self, n_workers, monkeypatch):
        m = pack_model()
        no_steps = ShapeError, "rewrite: every example needs a step"
        for first, second in itertools.permutations(range(4), 2):
            for empty_first in (True, False):
                bad = self.examples(m)
                bad[3 * first] = [] if empty_first else [StepInput([10**6], 1)]
                bad[3 * second + 2] = [StepInput([10**6], 1)] if empty_first else []
                in_workers(monkeypatch, 1)
                expected = outcome(lambda: cli._rewrite_forked(m, bad, BOS, EOS))
                assert (expected == no_steps) == (empty_first == (first < second))
                in_workers(monkeypatch, n_workers)
                assert outcome(lambda: cli._rewrite_forked(m, bad, BOS, EOS)) == expected

    def test_a_worker_that_dies_names_its_exit_status(self, monkeypatch):
        m = pack_model()
        parent, run_share = os.getpid(), cli._run_share
        monkeypatch.setattr(cli, "_run_share", lambda fn, share: (
            run_share(fn, share) if os.getpid() == parent else os._exit(3)))
        in_workers(monkeypatch, 3)  # the second child is reaped after the raise
        with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
            cli._rewrite_forked(m, self.examples(m), BOS, EOS)

    def test_a_fork_that_fails_decodes_in_process(self, monkeypatch):
        m = pack_model()
        examples = self.examples(m)
        in_workers(monkeypatch, 1)
        expected = cli._rewrite_forked(m, examples, BOS, EOS)
        open_fds = len(os.listdir("/proc/self/fd"))
        tried = []

        def failing_fork():
            tried.append(1)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing_fork)
        in_workers(monkeypatch, 2)
        results = cli._rewrite_forked(m, examples, BOS, EOS)
        assert tried == [1]
        assert ([[*r.intermediate_tokens, r.final_tokens, r.truncated] for r in results]
                == [[*r.intermediate_tokens, r.final_tokens, r.truncated] for r in expected])
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_a_pipe_that_fails_decodes_in_process(self, monkeypatch):
        # 3 shares: the first child's pipe fails, so that share decodes
        # here, and the second share still forks
        m = pack_model()
        examples = self.examples(m)
        in_workers(monkeypatch, 1)
        expected = cli._rewrite_forked(m, examples, BOS, EOS)
        open_fds = len(os.listdir("/proc/self/fd"))
        pipes, forks = [], []
        pipe, fork = os.pipe, os.fork

        def failing_first_pipe():
            pipes.append(1)
            if len(pipes) == 1:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return pipe()

        monkeypatch.setattr(os, "pipe", failing_first_pipe)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        in_workers(monkeypatch, 3)
        results = cli._rewrite_forked(m, examples, BOS, EOS)
        assert (len(pipes), len(forks)) == (2, 1)
        assert ([[*r.intermediate_tokens, r.final_tokens, r.truncated] for r in results]
                == [[*r.intermediate_tokens, r.final_tokens, r.truncated] for r in expected])
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_an_interrupt_in_the_parent_kills_and_reaps_every_child(self, monkeypatch):
        m = pack_model()
        parent = os.getpid()
        reaped = []
        waitpid = os.waitpid

        def interrupted_here(fn, share):
            if os.getpid() != parent:
                signal.pause()  # a child that would never finish on its own
            raise KeyboardInterrupt

        def recorded_waitpid(pid, options):
            reaped.append(waitpid(pid, options))
            return reaped[-1]

        monkeypatch.setattr(cli, "_run_share", interrupted_here)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        in_workers(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            cli._rewrite_forked(m, self.examples(m), BOS, EOS)
        assert len(reaped) == 2
        assert all(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
                   for _, status in reaped)

    def test_one_pack_never_forks(self, monkeypatch):
        m = pack_model()
        assert cli._workers(1) == 1
        in_workers(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one pack"))
        examples = self.examples(m)[:3]
        assert [r.final_tokens for r in cli._rewrite_forked(m, examples, BOS, EOS)]

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_the_parent_decodes_the_share_with_the_most_steps(self, n_workers,
                                                              monkeypatch):
        m = pack_model()
        owned = []
        run_share = cli._run_share
        monkeypatch.setattr(cli, "_run_share",
                            lambda fn, share: owned.append(share) or run_share(fn, share))
        in_workers(monkeypatch, n_workers)
        for heavy in range(n_workers):
            examples = self.examples(m)
            for p in range(4):  # pack p: one step an example, 4 in share ``heavy``
                for i in range(3 * p, 3 * p + 3):
                    examples[i] = examples[i][:4 if p % n_workers == heavy else 1]
            owned.clear()
            cli._rewrite_forked(m, examples, BOS, EOS)
            assert owned == [range(heavy, 4, n_workers)]

    def test_workers_one_per_usable_cpu_from_one_thread(self, monkeypatch):
        threads = ["1"]
        listdir = os.listdir
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "listdir", lambda path: threads if path == "/proc/self/task"
                            else listdir(path))
        assert [cli._workers(n) for n in (1, 2, 4)] == [1, 2, 3]
        threads.append("2")  # a BLAS thread: forking would copy it mid-lock
        assert cli._workers(4) == 1

    def test_workers_stay_one_for_one_pack_or_a_second_thread(self, monkeypatch):
        # the host's own thread listing: fewer than 2 packs never fork, and
        # neither does a process with a live second thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [cli._workers(n) for n in (0, 1)] == [1, 1]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert cli._workers(4) == 1
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()


def test_generate_keeps_failed_records_in_place(data_dir, train_dir, tmp_path, capsys):
    records = dataio.read_records(data_dir / "test.jsonl")
    broken = [dict(r) for r in records]
    del broken[1]["arrangement"]  # DataFormatError
    doc = dict(broken[4]["documents"][0])
    doc["text"] += " filler" * 500  # LengthError: longer than max_len
    broken[4]["documents"] = [doc, *broken[4]["documents"][1:]]
    dataio.write_records(tmp_path / "broken.jsonl", broken)
    for name in ("test", "broken"):
        src = data_dir / "test.jsonl" if name == "test" else tmp_path / "broken.jsonl"
        assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                   "--data", src, "--vocab", data_dir / "vocab.txt",
                   "--out", tmp_path / f"{name}.pred.jsonl") == 0
    assert "2 records failed" in capsys.readouterr().err
    clean = dataio.read_records(tmp_path / "test.pred.jsonl")
    got = dataio.read_records(tmp_path / "broken.pred.jsonl")
    assert [r["id"] for r in got] == [r["id"] for r in records]
    for i, (line, ref) in enumerate(zip(got, clean)):
        if i in (1, 4):
            assert line["prediction"] == "" and line["error"]
        else:
            assert line == ref


@pytest.mark.parametrize("eos_bias", [-1e4, 1e4])
def test_generate_reports_truncation(eos_bias, data_dir, train_dir, tmp_path):
    # the smallest max_len the test records fit, with <eos> never (or
    # always) the greedy choice: every record truncates (or none does)
    voc = Vocab.load(data_dir / "vocab.txt")
    trained = dataio.load_model(train_dir / "checkpoint-final.bin")
    records = dataio.read_records(data_dir / "test.jsonl")
    max_len = max(len(s.tokens) for rec in records
                  for s in make_step_inputs(dataio.arranged_example(rec), voc, 10**6))
    model = QuestionRewriter(replace(trained.cfg, max_len=max_len),
                             arrays={k: p.data for k, p in trained.params.items()})
    model.params["out.b"].data[voc.eos_id] += eos_bias
    ck = tmp_path / "short.bin"
    dataio.save_checkpoint(ck, model, voc.sha256())
    assert run("generate", "--checkpoint", ck, "--data", data_dir / "test.jsonl",
               "--vocab", data_dir / "vocab.txt", "--out", tmp_path / "p.jsonl") == 0
    manifest = json.loads((tmp_path / "manifest-generate.json").read_text())
    ids = [r["id"] for r in records] if eos_bias < 0 else []
    assert manifest["truncated_records"] == len(ids)
    assert manifest["truncated_ids"] == ids
    for line in dataio.read_records(tmp_path / "p.jsonl"):
        assert set(line) == {"id", "hops", "prediction"}
        assert len(line["prediction"].split()) == (max_len - 1 if eos_bias < 0 else 0)


class TestTrain:
    def test_artifacts(self, train_dir):
        for name in ("checkpoint-H1.bin", "checkpoint-H2.bin",
                     "checkpoint-final.bin", "metrics.jsonl",
                     "manifest-train.json"):
            assert (train_dir / name).exists()

    def test_metrics_log_structure(self, train_dir):
        records = dataio.read_records(train_dir / "metrics.jsonl")
        validations = [r for r in records if r["event"] == "validation"]
        assert validations
        for r in validations:
            assert {"step", "H", "train_loss", "val_loss",
                    "rouge_l", "exact_match"} <= set(r)

    def test_unknown_config_key_is_error(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 1e-3}))
        assert run("train", "--config", cfg, "--data", data_dir,
                   "--out", tmp_path) == 2

    def test_vocab_size_mismatch_is_error(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"vocab_size": 5}))
        assert run("train", "--config", cfg, "--data", data_dir,
                   "--out", tmp_path) == 2

    @pytest.mark.parametrize("config", [
        {"d_model": 10, "n_heads": 3}, {"d_model": 0}, {"d_model": "64"},
        {"lr_alpha": "x"}, {"gamma_low": None}, {"n_enc_layers": -1}, {"n_dec_layers": 0},
        {"max_len": 2**40}, {"d_model": 2**63, "n_heads": 1}, {"n_enc_layers": 10**7},
    ], ids=["heads_misfit", "zero_width", "string_int", "string_float", "null_float",
            "negative_encoder_layers", "no_decoder_layers", "huge_max_len",
            "huge_d_model", "huge_layer_count"])
    def test_config_the_model_rejects_is_error(self, data_dir, tmp_path, capsys,
                                               monkeypatch, config):
        # rejected before any parameter is allocated
        monkeypatch.setattr(cli, "QuestionRewriter",
                            lambda *args, **kw: pytest.fail("the model was built"))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert run("train", "--config", cfg, "--data", data_dir,
                   "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["seed", "val_max_examples", "plateau_patience",
                                     "warmup_steps", "lr_alpha", "weight_decay",
                                     "max_grad_norm"])
    def test_negative_trainer_value_is_error(self, data_dir, tmp_path, capsys, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: -1}))
        out = tmp_path / "run"
        assert run("train", "--config", cfg, "--data", data_dir, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1 and key in err
        assert not out.exists()

    def test_negative_seed_flag_is_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--seed", "-1", "--data", data_dir, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1 and "seed" in err
        assert not out.exists()


class TestGenerate:
    def test_predictions_aligned(self, data_dir, train_dir, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                   "--data", data_dir / "test.jsonl",
                   "--vocab", data_dir / "vocab.txt", "--out", out) == 0
        preds = dataio.read_records(out)
        golds = dataio.read_records(data_dir / "test.jsonl")
        assert [p["id"] for p in preds] == [g["id"] for g in golds]
        assert all("intermediates" not in p for p in preds)

    def test_emit_intermediates(self, data_dir, train_dir, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                   "--data", data_dir / "test.jsonl",
                   "--vocab", data_dir / "vocab.txt", "--out", out,
                   "--emit-intermediates") == 0
        for p in dataio.read_records(out):
            assert len(p["intermediates"]) == p["hops"] - 1

    def test_wrong_vocab_rejected(self, data_dir, train_dir, tmp_path):
        other = tmp_path / "other-vocab.txt"
        vocab_lines = (data_dir / "vocab.txt").read_text().splitlines()
        other.write_text("\n".join(vocab_lines + ["extra_token"]) + "\n")
        assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                   "--data", data_dir / "test.jsonl",
                   "--vocab", other, "--out", tmp_path / "p.jsonl") == 2

    def test_ablate_flags_accepted(self, data_dir, train_dir, tmp_path):
        for mode in ("sa", "ca"):
            assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                       "--data", data_dir / "test.jsonl",
                       "--vocab", data_dir / "vocab.txt",
                       "--out", tmp_path / f"p-{mode}.jsonl",
                       "--ablate", mode) == 0


class TestEvaluate:
    def _gold_as_predictions(self, golds):
        return [
            {"id": g["id"], "hops": g["hops"], "prediction": g["question"]}
            for g in golds
        ]

    def test_perfect_predictions(self, data_dir, tmp_path, capsys):
        golds = dataio.read_records(data_dir / "test.jsonl")
        pred = tmp_path / "pred.jsonl"
        dataio.write_records(pred, self._gold_as_predictions(golds))
        report = tmp_path / "report.jsonl"
        assert run("evaluate", "--pred", pred, "--gold", data_dir / "test.jsonl",
                   "--out", report) == 0
        lines = dataio.read_records(report)
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["overall"]["rouge_l"] == pytest.approx(1.0)
        assert summary["overall"]["exact_match"] == pytest.approx(1.0)

    def test_each_pair_scored_once(self, data_dir, tmp_path, monkeypatch):
        golds = dataio.read_records(data_dir / "test.jsonl")
        preds = self._gold_as_predictions(golds)
        for rec in preds[::2]:
            rec["prediction"] = "who directed film_1 ?"
        pred, report = tmp_path / "pred.jsonl", tmp_path / "report.jsonl"
        dataio.write_records(pred, preds)
        calls = Counter()
        for name, fn in metrics.METRICS.items():
            monkeypatch.setitem(metrics.METRICS, name,
                                lambda pair, fn=fn, name=name: calls.update([name]) or fn(pair))
        assert run("evaluate", "--pred", pred, "--gold", data_dir / "test.jsonl",
                   "--out", report) == 0
        assert calls == {name: len(golds) for name in metrics.METRICS}
        # the report as scoring every hop group again wrote it
        pairs = [(p["id"], metrics.EvalPair.from_strings(p["prediction"], [g["question"]]))
                 for p, g in zip(preds, golds)]
        overall, records = metrics.corpus_eval(pairs)
        lines = [{"type": "example", **rec, "hops": g["hops"]}
                 for rec, g in zip(records, golds)]
        per_hop = {
            str(h): metrics.corpus_eval(
                [pair for pair, g in zip(pairs, golds) if g["hops"] == h])[0]
            for h in sorted({g["hops"] for g in golds})
        }
        lines.append({"type": "summary", "overall": overall, "per_hop": per_hop})
        assert len(per_hop) == 2
        assert report.read_text(encoding="utf-8") == "".join(
            dataio.json_line(line) + "\n" for line in lines)

    def test_hop_grouping_sums_to_total(self, data_dir, tmp_path):
        golds = dataio.read_records(data_dir / "test.jsonl")
        pred = tmp_path / "pred.jsonl"
        dataio.write_records(pred, self._gold_as_predictions(golds))
        report = tmp_path / "report.jsonl"
        run("evaluate", "--pred", pred, "--gold", data_dir / "test.jsonl",
            "--out", report)
        summary = dataio.read_records(report)[-1]
        assert sum(v["count"] for v in summary["per_hop"].values()) == len(golds)

    def test_id_mismatch_is_alignment_error(self, data_dir, tmp_path):
        golds = dataio.read_records(data_dir / "test.jsonl")
        preds = self._gold_as_predictions(golds)[:-1]
        pred = tmp_path / "pred.jsonl"
        dataio.write_records(pred, preds)
        assert run("evaluate", "--pred", pred, "--gold", data_dir / "test.jsonl",
                   "--out", tmp_path / "r.jsonl") == 2


    @pytest.mark.parametrize("which", ["pred", "gold"])
    def test_duplicated_id_is_data_error(self, data_dir, tmp_path, capsys, which):
        golds = dataio.read_records(data_dir / "test.jsonl")
        records = {"gold": golds, "pred": self._gold_as_predictions(golds)}
        records[which] = [*records[which], records[which][0]]
        for name, recs in records.items():
            dataio.write_records(tmp_path / f"{name}.jsonl", recs)
        assert run("evaluate", "--pred", tmp_path / "pred.jsonl",
                   "--gold", tmp_path / "gold.jsonl",
                   "--out", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert f"{which}.jsonl" in err and repr(golds[0]["id"]) in err
        assert not (tmp_path / "r.jsonl").exists()


    @pytest.mark.parametrize("which, defect", [
        ("pred", "no_id"), ("pred", "no_prediction"), ("pred", "null_prediction"),
        ("pred", "list_id"), ("gold", "no_question"), ("gold", "text_hops"),
    ])
    def test_malformed_record_is_data_error(self, data_dir, tmp_path, capsys, which,
                                            defect):
        golds = dataio.read_records(data_dir / "test.jsonl")
        records = {"gold": golds, "pred": self._gold_as_predictions(golds)}
        rec = records[which][1]
        {"no_id": lambda: rec.pop("id"),
         "no_prediction": lambda: rec.pop("prediction"),
         "null_prediction": lambda: rec.update(prediction=None),
         "list_id": lambda: rec.update(id=[1, 2]),
         "no_question": lambda: rec.pop("question"),
         "text_hops": lambda: rec.update(hops="x")}[defect]()
        for name, recs in records.items():
            dataio.write_records(tmp_path / f"{name}.jsonl", recs)
        assert run("evaluate", "--pred", tmp_path / "pred.jsonl",
                   "--gold", tmp_path / "gold.jsonl",
                   "--out", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.splitlines()) == 1
        assert f"{which}.jsonl: record " in err and "Traceback" not in err
        assert not (tmp_path / "r.jsonl").exists()

    def test_empty_files_are_data_error(self, tmp_path, capsys):
        pred, gold = tmp_path / "empty-pred.jsonl", tmp_path / "empty-gold.jsonl"
        pred.write_text("")
        gold.write_text("")
        assert run("evaluate", "--pred", pred, "--gold", gold,
                   "--out", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.splitlines()) == 1
        assert "empty-pred.jsonl" in err and "empty-gold.jsonl" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("boundary", ["arrange --in", "generate --checkpoint",
                                      "train --config", "evaluate --out"])
def test_directory_at_file_boundary_is_data_error(boundary, data_dir, train_dir,
                                                  tmp_path, capsys):
    """A directory where a file belongs is a data error, not a traceback."""
    folder = tmp_path / "folder"
    folder.mkdir()
    command, flag = boundary.split()
    argv = {
        "arrange": {"--in": data_dir / "test.jsonl", "--out": tmp_path / "o.jsonl"},
        "generate": {"--checkpoint": train_dir / "checkpoint-final.bin",
                     "--data": data_dir / "test.jsonl",
                     "--vocab": data_dir / "vocab.txt", "--out": tmp_path / "p.jsonl"},
        "train": {"--data": data_dir, "--out": tmp_path / "run"},
        "evaluate": {"--pred": data_dir / "test.jsonl", "--gold": data_dir / "test.jsonl",
                     "--out": tmp_path / "r.jsonl"},
    }[command]
    argv[flag] = folder
    if command == "evaluate":  # test records carry no prediction; score gold as one
        pred = tmp_path / "pred.jsonl"
        dataio.write_records(pred, [{"id": g["id"], "prediction": g["question"]}
                                    for g in dataio.read_records(data_dir / "test.jsonl")])
        argv["--pred"] = pred
    assert run(command, *(arg for pair in argv.items() for arg in pair)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert os.listdir(folder) == []


class TestRepeatedMain:
    """``main`` may be called many times in one process; the parser is
    built once and carries nothing from one call to the next."""

    def test_parser_built_once(self, tmp_path):
        cli.build_parser.cache_clear()
        for i in range(3):
            assert run("gen-data", "--out", tmp_path / str(i), "--hops", "1",
                       "--train", "4", "--valid", "2", "--test", "2",
                       "--entities", "20") == 0
        assert run("arrange", "--in", tmp_path / "0" / "test.jsonl",
                   "--out", tmp_path / "a.jsonl") == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_ablate_does_not_carry_over(self, data_dir, train_dir, tmp_path):
        manifests = []
        for name, extra in (("ablated", ["--ablate", "sa"]), ("plain", [])):
            out = tmp_path / name
            out.mkdir()
            assert run("generate", "--checkpoint", train_dir / "checkpoint-final.bin",
                       "--data", data_dir / "test.jsonl",
                       "--vocab", data_dir / "vocab.txt",
                       "--out", out / "pred.jsonl", *extra) == 0
            manifests.append(json.loads((out / "manifest-generate.json").read_text()))
        assert [m["config"]["ablate"] for m in manifests] == [["sa"], []]

    def test_usage_error_leaves_parser_usable(self, tmp_path, capsys):
        assert run("gen-data", "--out", tmp_path / "a", "--no-such-flag") == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert run("gen-data", "--out", tmp_path / "b", "--hops", "1", "--train", "4",
                   "--valid", "2", "--test", "2", "--entities", "20") == 0


def run_process(*argv):
    """``python -m qrewrite.cli`` as its own process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "qrewrite.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


class TestProcess:
    def test_help(self):
        proc = run_process("--help")
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout

    def test_unknown_subcommand_is_usage_error(self):
        proc = run_process("no-such-command")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: ")
        assert "Traceback" not in proc.stderr

    def test_directory_input_is_data_error(self, tmp_path):
        proc = run_process("arrange", "--in", tmp_path, "--out", tmp_path / "o.jsonl")
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: ")
        assert "Traceback" not in proc.stderr


class TestExitCodes:
    def test_usage_error(self):
        assert run("train") == 1
        assert run("no-such-command") == 1

    def test_grad_check_wrong_precision_is_usage_error(self):
        assert run("grad-check", "--precision", "f32") == 1

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_grad_check_passes(self, steps):
        assert run("grad-check", "--steps", steps) == 0


class TestDeterminism:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_train_twice_byte_identical(self, precision, data_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "d_model": 16, "n_heads": 2, "d_ff": 24,
            "n_enc_layers": 1, "n_dec_layers": 1,
            "lr_alpha": 1e-3, "warmup_steps": 5, "batch_size": 8,
            "epochs_per_main_complexity": 1, "val_max_examples": 4, "seed": 13,
        }))
        outs = []
        for name in ("run-a", "run-b"):
            out = tmp_path / name
            assert run("train", "--config", cfg, "--data", data_dir,
                       "--out", out, "--precision", precision) == 0
            outs.append(out)
        a, b = outs
        for name in ("metrics.jsonl", "checkpoint-H1.bin", "checkpoint-H2.bin",
                     "checkpoint-final.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        if precision == "f32":
            # an f32 run stores float32 arrays, and generate decodes with them
            _, _, arrays = dataio.load_checkpoint(a / "checkpoint-final.bin")
            assert {arr.dtype.name for arr in arrays.values()} == {"float32"}
            pred = tmp_path / "pred.jsonl"
            assert run("generate", "--checkpoint", a / "checkpoint-final.bin",
                       "--data", data_dir / "test.jsonl", "--vocab", data_dir / "vocab.txt",
                       "--out", pred, "--precision", "f32") == 0
            records = (data_dir / "test.jsonl").read_text().splitlines()
            assert len(pred.read_text().splitlines()) == len(records) > 0
