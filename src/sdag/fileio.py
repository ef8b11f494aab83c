"""The one way this package reads a file, checks its fields, and replaces it.

Every file the CLI reads is parsed by `read_json` (`parse_json` per line of
a JSONL file), and each object in it is checked by `check_fields` against
one of the field tables below: field -> (type, required), where a type is an
(accepts, description) pair and `required` is REQUIRED, OPTIONAL or ONE_OF
(exactly one of a table's ONE_OF fields is present). docs/formats.md states
the same tables, with `required` written as in its tables. Every
file the package writes goes through `atomic_writer`.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

from .errors import VersionMismatch

STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
# Finite: not NaN, Infinity or 1e999 (read as inf), nor an integer beyond the float range.
NUMBER = (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a number")
BOOLEAN = (lambda v: isinstance(v, bool), "a boolean")
LIST = (lambda v: isinstance(v, list), "a list")
STRING_LIST = (lambda v: LIST[0](v) and all(map(STRING[0], v)), "a list of strings")
OBJECT = (lambda v: isinstance(v, dict), "an object")
NUMBER_MAP = (lambda v: OBJECT[0](v) and all(map(NUMBER[0], v.values())), "an object of numbers")


def or_null(kind: tuple) -> tuple:
    return (lambda v: v is None or kind[0](v), f"{kind[1]} or null")


REQUIRED, OPTIONAL, ONE_OF = "yes", "no", "one of"

# One line of a question dataset.
RECORD_FIELDS = {
    "id": (STRING, REQUIRED),
    "question": (STRING, REQUIRED),
    "options": (STRING_LIST, REQUIRED),
    "gold": (STRING, REQUIRED),
    "subjects": (or_null(NUMBER_MAP), OPTIONAL),
    "split": (or_null(STRING), OPTIONAL),
}
# A router checkpoint, and its dims record.
CHECKPOINT_FIELDS = {
    "version": (INTEGER, REQUIRED),
    "dims": (OBJECT, REQUIRED),
    "seed": (or_null(INTEGER), OPTIONAL),
    "embedder": (or_null(STRING), OPTIONAL),
    "tensors": (OBJECT, REQUIRED),
}
DIMS_FIELDS = {
    **{name: (INTEGER, REQUIRED) for name in ("d_s", "d_q", "h", "L")},
    "activation": (STRING, OPTIONAL),
}
# One entry of a model pool.
POOL_FIELDS = {
    "model_id": (STRING, REQUIRED),
    "backend": (STRING, REQUIRED),
    "declared_subjects": (STRING_LIST, OPTIONAL),
}
# A profile store, and each model's profile in it.
STORE_FIELDS = {
    "version": (INTEGER, REQUIRED),
    "provenance": (OBJECT, OPTIONAL),
    "profiles": (OBJECT, REQUIRED),
}
PROFILE_FIELDS = {
    "raw": (NUMBER_MAP, REQUIRED),
    "normalized": (NUMBER_MAP, REQUIRED),
    "uniform_fallback": (BOOLEAN, REQUIRED),
}
# One entry of a backend config.
BACKEND_FIELDS = {
    "name": (STRING, REQUIRED),
    "kind": (STRING, REQUIRED),
    **{name: (or_null(STRING), OPTIONAL) for name in ("url", "model", "key_env")},
    **{name: (INTEGER, OPTIONAL) for name in ("max_in_flight", "timeout_ms", "retries")},
    "backoff_s": (NUMBER, OPTIONAL),
    "script": (LIST, OPTIONAL),
    "seed": (INTEGER, OPTIONAL),
    "latency_ms": (
        (lambda v: LIST[0](v) and len(v) == 2 and all(map(NUMBER[0], v)), "a list of two numbers"),
        OPTIONAL,
    ),
    "script_path": (or_null(STRING), OPTIONAL),
}
# One rule of a mock script, its matcher object, and a matcher's metadata
# object; `backends.parse_rules` compiles each matcher into a predicate.
RULE_FIELDS = {
    "reply": (STRING, REQUIRED),
    "match": ((lambda v: v == "default" or OBJECT[0](v), "'default' or an object"), OPTIONAL),
}
MATCH_FIELDS = {
    "substring": (STRING, ONE_OF),
    "regex": (STRING, ONE_OF),
    "metadata": (OBJECT, ONE_OF),
}
METADATA_FIELDS = {
    "field": (STRING, REQUIRED),
    "equals": ((lambda v: BOOLEAN[0](v) or STRING[0](v) or NUMBER[0](v),
                "a string, number or boolean"), ONE_OF),
    "equals_field": (STRING, ONE_OF),
}


def parse_json(data: bytes, where: str, error: type[Exception]):
    """Parse UTF-8 JSON bytes; raise `error` prefixed by `where` if they are not."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise error(f"{where}: not valid UTF-8 JSON ({exc})") from exc


def read_json(path: str | Path, error: type[Exception]):
    """Parse the UTF-8 JSON file at `path`; raise `error` naming it if it is not."""
    return parse_json(Path(path).read_bytes(), str(path), error)


def check_fields(where: str, entry, table: dict, error: type[Exception] = ValueError) -> None:
    """Raise `error` prefixed by `where` unless `entry` is an object holding
    every required field of `table`, exactly one of its ONE_OF fields if it
    has any, no other field, and each of the right type."""
    if not isinstance(entry, dict):
        raise error(f"{where} is not an object")
    missing = [name for name, (_, required) in table.items()
               if required == REQUIRED and name not in entry]
    if missing:
        raise error(f"{where} lacks {', '.join(missing)}")
    unknown = sorted(set(entry) - set(table))
    if unknown:
        raise error(f"{where} has unknown field(s) {', '.join(unknown)}")
    choices = [name for name, (_, required) in table.items() if required == ONE_OF]
    if choices and sum(name in entry for name in choices) != 1:
        raise error(f"{where} needs exactly one of {', '.join(choices)}")
    for name, ((accepts, expected), _) in table.items():
        if name in entry and not accepts(entry[name]):
            raise error(f"{where}: {name} must be {expected}")


def read_versioned(path: str | Path, error: type[Exception], version: int, table: dict) -> dict:
    """The checked top level of a JSON file stamped with a format `version`.

    A well-formed version other than `version` raises VersionMismatch before
    anything else is checked; any other fault raises `error` naming the file.
    """
    payload = read_json(path, error)
    found = payload.get("version") if isinstance(payload, dict) else None
    if INTEGER[0](found) and found != version:
        raise VersionMismatch(f"{path}: version {found}, supported {version}")
    check_fields(str(path), payload, table, error)
    return payload


def read_entry_list(path: Path, key: str, table: dict, unique: str) -> list[dict]:
    """The checked entries of a JSON file holding a list, or {key: [...]}.

    Raises ValueError naming the file, and the entry index where there is
    one, for any other top level, an entry that fails `table`, or an entry
    whose `unique` field repeats an earlier entry's.
    """
    raw = read_json(path, ValueError)
    if isinstance(raw, dict):
        if key not in raw:
            raise ValueError(f"{path}: top-level object has no {key!r} list")
        check_fields(str(path), raw, {key: (LIST, REQUIRED)})
        raw = raw[key]
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a list of entries")
    for i, entry in enumerate(raw):
        check_fields(f"{path}: entry {i}", entry, table)
        if any(entry[unique] == earlier[unique] for earlier in raw[:i]):
            raise ValueError(f"{path}: entry {i}: duplicate {unique} {entry[unique]!r}")
    return raw


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
