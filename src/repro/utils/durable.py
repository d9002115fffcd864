"""Atomic, durable files: a crash leaves the old file or the new one.

The text is written to a temp file in the destination directory, fsynced,
then moved over the final path with ``os.replace``, so a crash or kill at
any instant leaves either the previous file or the new one, never a torn
file.  A failed write removes its temp file.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json(path: str | os.PathLike, payload: Any, **dump_options: Any) -> None:
    """Write ``json.dumps(payload, **dump_options)`` to ``path`` atomically.

    ``json.dumps`` runs the C encoder where ``json.dump`` always runs the
    pure-Python one; the text is the same, and it is built before any file
    is created, so a payload that does not serialise leaves nothing behind.
    """
    write_text(path, json.dumps(payload, **dump_options))


__all__ = ["write_json", "write_text"]
