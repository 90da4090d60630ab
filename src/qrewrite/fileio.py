"""Reading UTF-8 text, and writing files atomically: a write goes to a
temporary file beside the target, renamed over it once complete, so an
interrupted command leaves the old file (or none), never a truncated one.
Nothing is fsynced, so after an OS crash the rename may precede the data."""

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataFormatError


@contextmanager
def atomic_open(path: str | Path, mode: str):
    """Write ``path`` atomically; on error it stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path, error: type[ValueError] = DataFormatError) -> str:
    """The UTF-8 text of ``path``; other bytes raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
