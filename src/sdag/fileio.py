"""The one way this package replaces a file: write beside it, then rename."""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Yield a UTF-8 text file that replaces `path` when the block ends cleanly.

    The text goes to an exclusively created temporary file beside `path`,
    renamed onto it with `os.replace`. If the block raises, the temporary file
    is removed and any previous file at `path` is left intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x", encoding="utf-8")  # exclusive: never clobbers another file
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
