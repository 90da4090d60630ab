"""Token vocabulary with the fixed special-token prefix.

The on-disk format is one token per line, special tokens first, so that a
vocabulary file hashes deterministically.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError
from .fileio import atomic_open, read_text

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
        """Write one token a line, atomically: an interrupted write leaves
        ``path`` as it was, never a shorter vocabulary."""
        with atomic_open(path, "w") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = read_text(path).splitlines()
        if not lines:
            raise DataFormatError(f"empty vocabulary file: {path}")
        for lineno, tok in enumerate(lines, start=1):
            if tok.split() != [tok]:  # tokens come from str.split()
                raise DataFormatError(f"{path}:{lineno}: a token must be one "
                                      f"non-empty word, got {tok!r}")
        return cls(lines)

    def sha256(self) -> str:
        payload = "\n".join(self.tokens) + "\n"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
