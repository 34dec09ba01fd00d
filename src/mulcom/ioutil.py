"""The file boundary: every JSON file the package touches is read,
checked and written through this module.

A manifest, record file, checkpoint or config file that cannot be read
or parsed, or whose `format` and `version` envelope is wrong, is a
`DataFormatError` naming the file (and the line). Writes are canonical
JSON, atomic, and a write that fails is a `DataFormatError` naming the
file too.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator

import orjson

from .errors import DataFormatError

# orjson 3.8 builds nested values by recursion on the C stack, with no
# depth limit: 8k levels of objects overflow a 1 MiB thread stack and
# 1M levels of arrays the 8 MiB main stack, killing the process. Texts
# nested deeper than this go to json, which raises RecursionError past
# the interpreter's recursion limit (about 1000 levels).
_ORJSON_MAX_DEPTH = 512
_NOT_BRACKET_OR_QUOTE = bytes(c for c in range(256) if c not in b'[]{}"')


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


def _unreadable(exc: OSError | UnicodeDecodeError, path: str, what: str) -> DataFormatError:
    if isinstance(exc, FileNotFoundError):
        return DataFormatError(f"{what} not found", path=path)
    return DataFormatError(f"cannot read {what}: {exc}", path=path)  # also not UTF-8


def read_json(path: str, what: str) -> dict:
    """The JSON object in UTF-8 file `path`, parsed by `loads`; `what` names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(exc, path, what) from None
    try:
        obj = loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{what} is not valid JSON: {exc}", path=path) from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"{what} must be a JSON object, got {type(obj).__name__}",
                              path=path)
    return obj


def read_envelope(path: str, what: str, fmt: str, version: int) -> dict:
    """`read_json`'s object, whose `format` must be `fmt` and `version` the int `version`."""
    obj = read_json(path, what)
    if obj.get("format") != fmt:
        raise DataFormatError(f"unexpected {what} format {obj.get('format')!r}", path=path)
    if type(obj.get("version")) is not int or obj["version"] != version:
        raise DataFormatError(f"unsupported {what} version {obj.get('version')!r}", path=path)
    return obj


def read_json_lines(path: str, what: str) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line of UTF-8 JSON-lines file `path`.

    Lines are read one at a time, with universal newlines, so the whole
    text is never held at once.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.isspace():
                    continue
                try:
                    value = loads(raw)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"invalid JSON {what}: {exc}",
                                          path=path, line=lineno) from None
                yield lineno, value
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(exc, path, f"{what} file") from None


def write_json(path: str, obj) -> None:
    """Write `obj` to `path` as canonical JSON and a newline, atomically."""
    atomic_write_text(path, canonical_json(obj) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a same-directory temp file and rename over the target.

    An `OSError` (a missing directory, a directory at `path`, a full
    disk) is a `DataFormatError` naming `path`. On any failure the temp
    file is removed.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DataFormatError(f"cannot write file: {exc}", path=path) from None
        raise
