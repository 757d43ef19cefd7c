"""Output files written whole or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a temporary file beside `path` for writing. When the block ends
    normally it replaces `path` in one `os.replace`; when the block raises it
    is removed, and `path` keeps whatever it held before."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
