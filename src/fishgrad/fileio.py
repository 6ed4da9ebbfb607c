"""Whole-file writes: a failed write leaves the previous file as it was.
Result reads and checkpoint headers: a file that lacks a key its reader
uses fails naming both."""

import json
import os

_KINDS = {"an object": dict, "a list": list, "a string": str, "a number": (int, float),
          "a number or null": (int, float, type(None)), "an integer": int}


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


def read_result(path, keys: dict) -> dict:
    """The ``result`` object of a fishgrad JSON file (the whole file, if it
    has no ``result``), checked against ``keys``: each key its reader uses,
    with the kind of its value, ``None`` for any, a tuple for one of its
    values, a dict for an object holding those keys in turn (a key ending
    in ``?`` may be missing), or a one-item list for a list whose items all
    match that item. A mismatch raises a ``ValueError`` naming the path and
    the key, for example ``f.json: result.spec.mode must be a string``."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    if isinstance(d, dict) and "result" in d:
        check_keys(path, "result", d["result"], keys)
        return d["result"]
    check_keys(path, "", d, keys)
    return d


def check_keys(path, name: str, value, kind) -> None:
    """Check ``value``, read from ``path`` at key ``name``, against ``kind``
    as ``read_result`` describes it."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {name or 'the top level'} must be an object")
        for key, inner in kind.items():
            optional, key = key.endswith("?"), key.removesuffix("?")
            where = f"{name}.{key}" if name else key
            if key in value:
                check_keys(path, where, value[key], inner)
            elif not optional:
                raise ValueError(f"{path}: {where} is missing")
    elif isinstance(kind, list):
        check_keys(path, name, value, "a list")
        for i, item in enumerate(value):
            check_keys(path, f"{name}[{i}]", item, kind[0])
    elif isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{path}: {name} must be one of {list(kind)}")
    elif kind is not None and (isinstance(value, bool) or not isinstance(value, _KINDS[kind])):
        raise ValueError(f"{path}: {name} must be {kind}")
