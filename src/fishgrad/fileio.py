"""Whole-file writes: a failed write leaves the previous file as it was."""

import os


def write_atomic(path, content: str | bytes) -> None:
    """Write ``content`` (UTF-8 text or bytes) to a temporary file beside
    ``path``, then rename it over ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    binary = isinstance(content, bytes)
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
