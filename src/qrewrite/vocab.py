"""Token vocabulary with the fixed special-token prefix.

The on-disk format is one token per line, special tokens first, so that a
vocabulary file hashes deterministically.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError

PAD, BOS, EOS, ANS, BRIDGE, DOC, SEP, UNK = SPECIAL_TOKENS = (
    "<pad>",
    "<bos>",
    "<eos>",
    "<ans>",
    "<bridge>",
    "<doc>",
    "<sep>",
    "<unk>",
)


class Vocab:
    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise DataFormatError(
                f"vocabulary must start with the special tokens {SPECIAL_TOKENS}"
            )
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataFormatError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return self.index[BOS]

    @property
    def eos_id(self) -> int:
        return self.index[EOS]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        unk = self.index[UNK]
        return [self.index.get(tok, unk) for tok in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    @classmethod
    def build(cls, corpus_tokens: Iterable[str]) -> "Vocab":
        """Vocabulary = special tokens followed by sorted distinct tokens."""
        rest = sorted(set(corpus_tokens) - set(SPECIAL_TOKENS))
        return cls(list(SPECIAL_TOKENS) + rest)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                                  f"{exc.start})") from None
        if not lines:
            raise DataFormatError(f"empty vocabulary file: {path}")
        return cls(lines)

    def sha256(self) -> str:
        payload = "\n".join(self.tokens) + "\n"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
