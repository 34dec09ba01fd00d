"""Atomic file writes, canonical JSON for reproducible artifacts, and the
one JSON reader every input goes through."""

from __future__ import annotations

import json
import os
import tempfile

import orjson

# orjson 3.8 builds nested values by recursion on the C stack, with no
# depth limit: 8k levels of objects overflow a 1 MiB thread stack and
# 1M levels of arrays the 8 MiB main stack, killing the process. Texts
# nested deeper than this go to json, which raises RecursionError past
# the interpreter's recursion limit (about 1000 levels).
_ORJSON_MAX_DEPTH = 512
_NOT_BRACKET_OR_QUOTE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace drift.

    Floats go through repr, so float64 values survive a round trip
    bit-exactly and equal inputs always produce equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str):
    """The JSON value of `text`, as `json.loads` gives it, parsed by orjson.

    A text that orjson rejects, or one nested more than 512 levels deep,
    goes to `json.loads` instead. So NaN and Infinity literals,
    numbers that overflow a double, lone surrogates and every syntax
    error load or fail exactly as with `json.loads`, and floats are
    bit-identical (both round correctly). The one known divergence: an
    integer literal wider than 64 bits (outside [-2**63, 2**64 - 1])
    loads as the nearest float, where `json.loads` gives an int; a
    23-digit label is still a ValidationError naming its doc, but the
    number in the message differs.

    Raises `json.JSONDecodeError`, also for nesting past the recursion
    limit.
    """
    data = text.encode("utf-8", "surrogatepass")  # orjson rejects the surrogates
    if _nests_at_most(data, _ORJSON_MAX_DEPTH):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting exceeds the recursion limit", text, 0) from None


def _nests_at_most(data: bytes, limit: int) -> bool:
    """Whether JSON text `data` nests no more than `limit` levels deep.

    A text with at most `limit` brackets cannot nest deeper; they are
    counted by deleting them, since `bytes.replace` searches with memchr
    and `bytes.count` byte by byte. Otherwise the brackets outside
    strings are followed in order. Exact for valid JSON; orjson rejects
    invalid text before it builds any value.
    """
    brackets = 2 * len(data) - len(data.replace(b"[", b"")) - len(data.replace(b"{", b""))
    if brackets <= limit:
        return True
    if b"\\" in data:  # drop the escapes that could hide a quote
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    depth = 0
    for c in b"".join(data.translate(None, _NOT_BRACKET_OR_QUOTE).split(b'"')[::2]):
        depth += 1 if c in b"[{" else -1
        if depth > limit:
            return False
    return True


def read_json(path: str):
    """The JSON value in UTF-8 file `path`, parsed by `loads`."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def atomic_write_text(path: str, text: str) -> None:
    """Write via a same-directory temp file and rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
