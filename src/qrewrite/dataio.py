"""Persistent formats: dataset records, checkpoints, configs, manifests.

Dataset, prediction and report files are line-delimited JSON; the order of
records is preserved and files are streamable.  Checkpoints are a small
binary format: magic "E2QR", version, a JSON header naming the tensors, and
raw little-endian buffers, so that save -> load -> forward is bit-exact at
the stored precision.  Record files, checkpoints and manifests are written
atomically (``fileio.atomic_open``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path
from types import GenericAlias
from typing import Iterable, Sequence

import numpy as np

from .docgraph import ArrangedExample, Document, arrange
from .errors import CompatibilityError, ConfigError, DataFormatError, ShapeError
from .fileio import atomic_open, read_text
from .model import ModelConfig, QuestionRewriter
from .training import CurriculumConfig

CHECKPOINT_MAGIC = b"E2QR"
CHECKPOINT_VERSION = 1

# The JSON type of every record field a reader uses (see ``check_fields``);
# the optional fields are checked when present.
_RECORD_TYPES = {"id": (str, int), "hops": int, "answer": str, "question": str,
                 "documents": list}
_OPTIONAL_TYPES = {"reference_intermediates": list[str], "arrangement": dict}
_DOC_TYPES = {"title": str, "text": str, "is_answer_doc": bool, "entities": list[str]}
_ARRANGEMENT_TYPES = {"order": list[int], "bridges": list[list[str]]}
# The JSON types of a checkpoint header's fields and of its tensor entries
_HEADER_TYPES = {"config": dict, "tensors": list, "vocab_sha256": str}
_TENSOR_TYPES = {"name": str, "shape": list[int]}


# ---------------------------------------------------------------------------
# dataset records


_JSON_LINE = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def json_line(obj) -> str:
    """``obj`` as one line of JSON, keys sorted, non-ASCII kept as is."""
    return _JSON_LINE.encode(obj)


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    with atomic_open(path, "w") as fh:
        for rec in records:
            fh.write(json_line(rec) + "\n")


def read_records(path: str | Path) -> list[dict]:
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})")
        if not isinstance(rec, dict):
            raise DataFormatError(
                f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}"
            )
        records.append(rec)
    return records


def _has_type(value, kind) -> bool:
    """Whether ``value`` is of JSON type ``kind`` exactly, so that a bool is
    no int: a type, a tuple of alternatives, or ``list[item kind]``."""
    if type(kind) is GenericAlias:
        (item,) = kind.__args__
        if type(value) is not list:
            return False
        if type(item) is GenericAlias:
            return all(_has_type(v, item) for v in value)
        return all(type(v) is item for v in value)
    return type(value) in kind if type(kind) is tuple else type(value) is kind


def check_fields(where: str, obj, fields: dict,
                 error: type[ValueError] = DataFormatError) -> None:
    """Raise ``error`` naming ``where`` unless ``obj`` is a JSON object that
    holds a value of type ``fields[key]`` (see ``_has_type``) under each key
    of ``fields``."""
    if type(obj) is not dict:
        raise error(f"{where} is not a JSON object")
    for key, kind in fields.items():
        if not _has_type(obj.get(key), kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            names = " or ".join(k.__name__ if type(k) is type else str(k) for k in kinds)
            raise error(f"{where} needs {key!r} of type {names}")


def validate_record(rec: dict) -> None:
    """Raise ``DataFormatError`` naming the record unless every field its
    readers use is there, of its type, and every entity of its documents
    and bridges is one or more tokens joined by single spaces."""
    where = f"record {rec.get('id', '?')!r}"
    check_fields(where, rec, {**_RECORD_TYPES,
                              **{k: t for k, t in _OPTIONAL_TYPES.items() if k in rec}})
    if "arrangement" in rec:
        check_fields(f"{where}: arrangement", rec["arrangement"], _ARRANGEMENT_TYPES)
    docs = rec["documents"]
    if not docs:
        raise DataFormatError(f"{where} has no documents")
    for d in docs:
        check_fields(f"{where}: a document", d, _DOC_TYPES)
    if rec["hops"] != len(docs):
        raise DataFormatError(f"{where}: hops={rec['hops']} but {len(docs)} documents")
    entities = [e for d in docs for e in d["entities"]]
    if "arrangement" in rec:
        entities += [e for bridge in rec["arrangement"]["bridges"] for e in bridge]
    for entity in entities:
        # entities are the links arrange follows: a blank one would link any
        # two documents, and "film_3 " would miss "film_3"
        if not entity or " ".join(entity.split()) != entity:
            raise DataFormatError(
                f"{where}: entity {entity!r} is not tokens joined by single spaces"
            )


def record_documents(rec: dict) -> list[Document]:
    return [
        Document(
            i,
            d["title"].split(),
            d["text"].split(),
            bool(d["is_answer_doc"]),
            frozenset(d["entities"]),
        )
        for i, d in enumerate(rec["documents"])
    ]


def arrange_record(rec: dict) -> dict:
    """Return a copy of the record augmented with its arrangement."""
    validate_record(rec)
    arranged = arrange(record_documents(rec), rec["answer"].split())
    out = dict(rec)
    out["arrangement"] = {
        "order": [d.doc_id for d in arranged.documents],
        "bridges": [sorted(b) for b in arranged.bridges],
    }
    return out


def arranged_example(rec: dict) -> ArrangedExample:
    """Materialize an arranged record for the model pipeline."""
    validate_record(rec)
    if "arrangement" not in rec:
        raise DataFormatError(
            f"record {rec['id']!r} is not arranged; run the arrange command first"
        )
    docs = record_documents(rec)
    order = rec["arrangement"]["order"]
    if sorted(order) != list(range(len(docs))):
        raise DataFormatError(f"record {rec['id']!r}: bad arrangement order {order}")
    bridges = [frozenset(b) for b in rec["arrangement"]["bridges"]]
    if len(bridges) != len(docs) - 1:
        raise DataFormatError(
            f"record {rec['id']!r}: {len(bridges)} bridge sets for {len(docs)} docs"
        )
    return ArrangedExample(
        answer=rec["answer"].split(),
        documents=[docs[i] for i in order],
        bridges=bridges,
        gold_question=rec["question"].split(),
        hops=len(docs),
        example_id=rec["id"],
        reference_intermediates=[
            q.split() for q in rec.get("reference_intermediates", [])
        ],
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: QuestionRewriter, vocab_sha256: str) -> None:
    float_size = model.dtype.itemsize
    names = list(model.params)
    header = {
        "config": model.cfg.to_dict(),
        "vocab_sha256": vocab_sha256,
        "tensors": [
            {"name": n, "shape": list(model.params[n].data.shape)} for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    dtype = np.dtype(f"<f{float_size}")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        # the last header byte is a flag that this version keeps at 0
        fh.write(struct.pack("<HBB", CHECKPOINT_VERSION, float_size, 0))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data, dtype=dtype).tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, str, dict[str, np.ndarray]]:
    """Returns (config, vocab hash, parameter arrays).

    A truncated file, bytes after the last tensor, a set header flag, a
    header that is not a JSON object, lacks a key or holds a value of the
    wrong JSON type, a tensor entry without a string name or a shape of
    positive integers, a tensor name that comes twice, a tensor value that
    is NaN or infinite, or a header config that a config file could not
    give (see ``load_config``) or that ``ModelConfig`` rejects raise
    ``DataFormatError`` naming the file.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 12:
        raise DataFormatError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
    version, float_size, flag = struct.unpack("<HBB", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    if float_size not in (4, 8):
        raise DataFormatError(f"{path}: bad float size {float_size}")
    if flag:
        raise DataFormatError(f"{path}: unsupported checkpoint header flag {flag}")
    (blob_len,) = struct.unpack("<I", raw[8:12])
    offset = 12 + blob_len
    if offset > len(raw):
        raise DataFormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[12:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: checkpoint header is not JSON ({exc})")
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    for key in _HEADER_TYPES:
        if key not in header:
            raise DataFormatError(f"{path}: checkpoint header lacks {key!r}")
    check_fields(f"{path}: checkpoint header", header, _HEADER_TYPES)
    dtype = np.dtype(f"<f{float_size}")
    arrays = {}
    for spec in header["tensors"]:
        check_fields(f"{path}: a tensor entry of the header", spec, _TENSOR_TYPES)
        name, shape = spec["name"], tuple(spec["shape"])
        if name in arrays:
            raise DataFormatError(f"{path}: tensor {name!r} comes twice in the header")
        if min(shape, default=1) < 1:
            raise DataFormatError(f"{path}: tensor {name!r} has a bad shape {spec['shape']!r}")
        end = offset + math.prod(shape) * float_size
        if end > len(raw):
            raise DataFormatError(
                f"{path}: truncated checkpoint: tensor {name!r} ends at "
                f"byte {end} of {len(raw)}"
            )
        arrays[name] = np.frombuffer(raw[offset:end], dtype=dtype).reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise DataFormatError(f"{path}: tensor {name!r} holds a NaN or infinite value")
        offset = end
    if offset != len(raw):
        raise DataFormatError(
            f"{path}: {len(raw) - offset} trailing bytes after the last tensor"
        )
    config = header["config"]
    check_fields(f"{path}: header config", config,
                 {k: t for k, t in MODEL_KEYS.items() if k in config})
    try:
        cfg = ModelConfig(**config)
    except (TypeError, ShapeError) as exc:
        raise DataFormatError(f"{path}: bad model config in header ({exc})")
    return cfg, header["vocab_sha256"], arrays


def load_model(
    path: str | Path,
    expect_vocab_sha256: str | None = None,
    dtype=None,
    mode_overrides: dict | None = None,
) -> QuestionRewriter:
    cfg, vhash, arrays = load_checkpoint(path)
    if expect_vocab_sha256 is not None and vhash != expect_vocab_sha256:
        raise CompatibilityError(
            f"checkpoint was trained with vocabulary {vhash[:12]}..., "
            f"got {expect_vocab_sha256[:12]}..."
        )
    if mode_overrides:
        cfg = dataclasses.replace(cfg, **mode_overrides)
    stored = np.dtype(f"<f{next(iter(arrays.values())).itemsize}") if arrays else np.float64
    try:
        model = QuestionRewriter(cfg, dtype=dtype or stored, arrays=arrays)
    except ShapeError as exc:
        raise DataFormatError(f"{path}: tensors do not fit the header config ({exc})")
    return model


# ---------------------------------------------------------------------------
# configuration files


def _field_types(config) -> dict:
    """config key -> the JSON type of its field's value (see ``_has_type``):
    a float field takes an integer too."""
    return {k: (float, int) if type(v) is float else type(v)
            for k, v in config.to_dict().items()}


MODEL_KEYS = _field_types(ModelConfig(vocab_size=1))
TRAIN_KEYS = _field_types(CurriculumConfig())


def load_config(path: str | Path) -> tuple[dict, dict]:
    """Flat key-value file split into model and trainer overrides.

    Unknown keys and values of the wrong JSON type are errors so that
    experiment typos surface immediately.
    """
    try:
        data = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    kinds = {**MODEL_KEYS, **TRAIN_KEYS}
    for key in data:
        if key not in kinds:
            raise ConfigError(f"{path}: unknown config key {key!r}; known keys: {sorted(kinds)}")
    check_fields(f"{path}: config", data, {k: kinds[k] for k in data}, ConfigError)
    return ({k: v for k, v in data.items() if k in MODEL_KEYS},
            {k: v for k, v in data.items() if k in TRAIN_KEYS})


# ---------------------------------------------------------------------------
# manifests


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    out_dir: str | Path,
    command: str,
    config_snapshot: dict,
    seed: int | None,
    inputs: dict[str, str | Path],
    outputs: Sequence[str],
    report: dict | None = None,
) -> Path:
    """Write ``manifest-<command>.json``; ``report`` adds what the run
    found (e.g. truncated records) under its own keys."""
    manifest = {
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
        "outputs": sorted(outputs),
        **(report or {}),
    }
    path = Path(out_dir) / f"manifest-{command}.json"
    with atomic_open(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
