import json
import struct

import numpy as np
import pytest

from qrewrite import dataio, fileio
from qrewrite.errors import CompatibilityError, ConfigError, DataFormatError
from qrewrite.model import ModelConfig, QuestionRewriter, StepInput
from qrewrite.vocab import Vocab


def sample_record(hops=2):
    docs = [
        {"title": "film_3", "text": "person_7 directed film_3 .",
         "is_answer_doc": True, "entities": ["person_7", "film_3"]},
        {"title": "person_9", "text": "person_9 starred in film_3 .",
         "is_answer_doc": False, "entities": ["film_3", "person_9"]},
    ][:hops]
    return {
        "id": "r1",
        "hops": hops,
        "answer": "person_7",
        "question": "who directed the film starring person_9 ?",
        "documents": docs,
        "reference_intermediates": ["who directed film_3 ?"] if hops > 1 else [],
    }


def corrupt_checkpoint(path, defect):
    """Rewrite a saved checkpoint with one defect."""
    raw = path.read_bytes()
    if defect == "truncated":
        raw = raw[:-5]
    elif defect == "trailing_bytes":
        raw += b"\x00" * 8
    elif defect == "flag_set":
        raw = raw[:7] + b"\x01" + raw[8:]
    else:
        (n,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + n])
        if defect == "unknown_config_key":  # a key ModelConfig does not know
            header["config"]["n_experts"] = 4
        elif defect == "invalid_config":  # ModelConfig rejects the values
            header["config"].update(d_model=8, n_heads=3)
        elif defect == "zero_decoder_layers":  # a decoder that reads nothing
            header["config"].update(n_dec_layers=0)
        elif defect == "tensor_name_mismatch":
            header["tensors"][0]["name"] = "no.such.param"
        elif defect == "tensor_without_name":
            del header["tensors"][0]["name"]
        elif defect == "bad_tensor_shape":
            header["tensors"][0]["shape"] = ["x", 2.5]
        elif defect.startswith("no_"):
            del header[defect[3:]]
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        if defect == "header_not_json":
            blob = blob[:-1]
        raw = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n :]
    path.write_bytes(raw)


class TestRecords:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        recs = [sample_record(), {**sample_record(), "id": "r2"}]
        dataio.write_records(path, recs)
        assert dataio.read_records(path) == recs

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(DataFormatError, match="2"):
            dataio.read_records(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('{"id": "a"}\n[1, 2]\n')
        with pytest.raises(DataFormatError, match=r"list\.jsonl:2: expected a JSON object"):
            dataio.read_records(path)

    def test_hops_document_mismatch(self):
        rec = sample_record()
        rec["hops"] = 3
        with pytest.raises(DataFormatError, match="hops"):
            dataio.validate_record(rec)

    def test_arrange_record_and_materialize(self):
        rec = dataio.arrange_record(sample_record())
        assert rec["arrangement"]["order"] == [0, 1]
        assert rec["arrangement"]["bridges"] == [["film_3"]]
        ex = dataio.arranged_example(rec)
        assert ex.hops == 2
        assert ex.documents[0].is_answer_doc
        assert ex.bridges == [frozenset({"film_3"})]
        assert ex.gold_question[0] == "who"

    def test_unarranged_record_rejected(self):
        with pytest.raises(DataFormatError, match="arrange"):
            dataio.arranged_example(sample_record())

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        dataio.write_records(path, [])
        assert dataio.read_records(path) == []


class TestCheckpoints:
    def _model(self, dtype=np.float64):
        cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16,
                          n_enc_layers=1, n_dec_layers=1, max_len=16)
        return QuestionRewriter(cfg, rng=np.random.default_rng(3), dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_roundtrip_bit_exact(self, tmp_path, dtype):
        m = self._model(dtype)
        path = tmp_path / "ck.bin"
        dataio.save_checkpoint(path, m, vocab_sha256="ab" * 32)
        cfg, vhash, arrays = dataio.load_checkpoint(path)
        assert cfg == m.cfg
        assert vhash == "ab" * 32
        for name, arr in arrays.items():
            assert arr.dtype.itemsize == np.dtype(dtype).itemsize
            np.testing.assert_array_equal(arr, m.params[name].data)

    def test_forward_identical_after_roundtrip(self, tmp_path):
        m = self._model()
        path = tmp_path / "ck.bin"
        dataio.save_checkpoint(path, m, vocab_sha256="00" * 32)
        m2 = dataio.load_model(path)
        steps = [StepInput([3, 4, 5], 1)]
        a = m.rewrite_forward(steps, 1, 2, gold_final=[6, 7]).final_logits.data
        b = m2.rewrite_forward(steps, 1, 2, gold_final=[6, 7]).final_logits.data
        np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        m = self._model()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        dataio.save_checkpoint(p1, m, vocab_sha256="00" * 32)
        dataio.save_checkpoint(p2, m, vocab_sha256="00" * 32)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vocab_hash_mismatch(self, tmp_path):
        m = self._model()
        path = tmp_path / "ck.bin"
        dataio.save_checkpoint(path, m, vocab_sha256="11" * 32)
        with pytest.raises(CompatibilityError):
            dataio.load_model(path, expect_vocab_sha256="22" * 32)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            dataio.load_checkpoint(path)

    @pytest.mark.parametrize("defect", [
        "truncated", "trailing_bytes", "unknown_config_key", "header_not_json",
        "no_tensors", "no_config", "no_vocab_sha256", "flag_set", "invalid_config",
        "tensor_name_mismatch", "tensor_without_name", "bad_tensor_shape",
        "zero_decoder_layers",
    ])
    def test_malformed_checkpoint(self, tmp_path, defect):
        path = tmp_path / "ck.bin"
        dataio.save_checkpoint(path, self._model(), vocab_sha256="00" * 32)
        corrupt_checkpoint(path, defect)
        with pytest.raises(DataFormatError, match="ck.bin") as err:
            dataio.load_model(path)  # reads the file with load_checkpoint first
        if defect.startswith("no_"):
            assert repr(defect[3:]) in str(err.value)

    def test_mode_overrides_on_load(self, tmp_path):
        m = self._model()
        path = tmp_path / "ck.bin"
        dataio.save_checkpoint(path, m, vocab_sha256="00" * 32)
        m2 = dataio.load_model(path, mode_overrides={"mode_accumulated_sa": False})
        assert not m2.cfg.mode_accumulated_sa
        assert m2.cfg.mode_accumulated_ca


class TestConfigFile:
    def test_split_and_unknown_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d_model": 32, "lr_alpha": 1e-3}))
        model_kw, train_kw = dataio.load_config(path)
        assert model_kw == {"d_model": 32}
        assert train_kw == {"lr_alpha": 1e-3}
        path.write_text(json.dumps({"d_modle": 32}))
        with pytest.raises(ConfigError, match="d_modle"):
            dataio.load_config(path)

    def test_value_types(self, tmp_path):
        path = tmp_path / "c.json"
        fits = {"lr_alpha": 1, "gamma_low": 0.5, "batch_size": 4,
                "mode_accumulated_sa": False, "curriculum": "standard"}
        path.write_text(json.dumps(fits))
        model_kw, train_kw = dataio.load_config(path)
        assert {**model_kw, **train_kw} == fits
        for key, value in [("batch_size", True), ("batch_size", 4.0),
                           ("mode_accumulated_ca", 1), ("curriculum", None),
                           ("d_ff", [128])]:
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=key):
                dataio.load_config(path)

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            dataio.load_config(path)


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        data = tmp_path / "in.jsonl"
        dataio.write_records(data, [sample_record()])
        path = dataio.write_manifest(
            tmp_path, "train", {"k": 1}, 7, {"data": data}, ["out.bin"]
        )
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 7
        assert manifest["inputs"]["data"] == dataio.sha256_file(data)
        assert manifest["outputs"] == ["out.bin"]


class _FailingFile:
    """A file that writes half of its first chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("writer", ["records", "checkpoint", "manifest", "vocab"])
def test_interrupted_write_keeps_the_old_file(writer, tmp_path, monkeypatch):
    model = TestCheckpoints()._model()
    tokens = [f"tok{i}" for i in range(40)]

    def write():
        if writer == "vocab":
            Vocab.build(tokens).save(tmp_path / "vocab.txt")
            return tmp_path / "vocab.txt"
        if writer == "records":
            dataio.write_records(tmp_path / "out.jsonl", [sample_record(), sample_record(1)])
            return tmp_path / "out.jsonl"
        if writer == "checkpoint":
            dataio.save_checkpoint(tmp_path / "ck.bin", model, vocab_sha256="00" * 32)
            return tmp_path / "ck.bin"
        return dataio.write_manifest(tmp_path, "train", {"k": 1}, 7, {}, ["out.bin"])

    path = write()
    old = path.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    model.params["out.b"].data += 1.0  # the checkpoint would change
    tokens.append("tok40")  # and so would the vocabulary
    monkeypatch.setattr(fileio, "open", lambda *a, **k: _FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        write()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


@pytest.mark.parametrize("line", ["", " ", "foo bar", "\tfoo"])
def test_vocab_line_must_be_one_token(line, tmp_path):
    # tokens come from str.split(): none is empty or holds whitespace
    tokens = Vocab.build(["foo", "bar"]).tokens
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join([*tokens[:8], line, *tokens[8:]]) + "\n")
    with pytest.raises(DataFormatError, match=r"vocab\.txt:9: a token must be one"):
        Vocab.load(path)
    path.write_text("\n".join(tokens) + "\n")
    assert Vocab.load(path).tokens == tokens
