"""The JSON reader: `ioutil.loads` against `json.loads`.

A derandomized property draws JSON texts from nested values (floats
from raw bit patterns, NaN and infinities, 64-bit integers, strings with
non-ASCII characters and lone surrogates, written in both `ensure_ascii`
forms), plus truncations and single-character corruptions of them. For
every text the reader must give `json.loads`'s value, floats bit for
bit, or raise `json.JSONDecodeError` with `json.loads`'s message.
"""

import json
import math
import os
import struct
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mulcom import ioutil
from mulcom.config import SynthSpec
from mulcom.data import save_dataset, synth_generate
from mulcom.ioutil import loads

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e22, 1e23,
               math.nan, math.inf, -math.inf]


def _float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def tagged(value):
    """`value` with each leaf tagged by its type and floats by their bits."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return ("list", [tagged(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, tagged(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def outcome(parse, text):
    try:
        return "value", tagged(parse(text))
    except json.JSONDecodeError as exc:
        return "error", str(exc)


def _settings(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


STRINGS = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
LEAVES = (
    st.integers(0, 2**64 - 1).map(_float_from_bits)
    | st.sampled_from(EDGE_FLOATS)
    | st.integers(-(2**63), 2**64 - 1)
    | STRINGS
    | st.sampled_from([None, True, False])
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=12,
)
CORRUPTIONS = st.sampled_from(list('[]{}",:.-+eE0159 \\/ntfu\x00\x1f') + ["é", "\ud800"])


@st.composite
def json_texts(draw):
    text = json.dumps(draw(VALUES), ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 1])))
    kind = draw(st.sampled_from(["intact", "truncate", "replace"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "replace":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(CORRUPTIONS) + text[at + 1:]
    return text


@_settings(600)
@given(text=json_texts())
def test_reader_matches_json_loads(text):
    assert outcome(loads, text) == outcome(json.loads, text)


@pytest.mark.parametrize("text", [
    "NaN", "[Infinity, -Infinity]", "1e400", "-1e400", "1.7976931348623159e308",
    '"\\ud800"', '{"a": "\\udc00x"}', "﻿[1]", "", "  ", "[1,]", "01", '{"a" 1}',
    '["\x01"]', "[1] x", '{"a": 1, "a": 2}', "18446744073709551615", "-9223372036854775808",
])
def test_texts_orjson_rejects_or_reads_differently_load_as_json_loads_does(text):
    assert outcome(loads, text) == outcome(json.loads, text)


def test_a_wider_integer_loads_as_the_nearest_float():
    # the one documented divergence from json.loads
    assert loads("123456789012345678901234") == 1.2345678901234568e23
    assert json.loads("123456789012345678901234") == 123456789012345678901234


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"a":' * 100_000 + "1" + "}" * 100_000],
                         ids=["arrays", "objects"])
def test_deep_nesting_is_a_decode_error(text):
    with pytest.raises(json.JSONDecodeError, match="recursion limit"):
        loads(text)


def test_depth_past_the_orjson_limit_is_left_to_json(monkeypatch):
    depth = ioutil._ORJSON_MAX_DEPTH + 1

    class Refuse:
        JSONDecodeError = ValueError

        @staticmethod
        def loads(data):
            raise AssertionError("orjson was given a text nested past its limit")

    monkeypatch.setattr(ioutil, "orjson", Refuse)
    assert loads("[" * depth + "]" * depth) == json.loads("[" * depth + "]" * depth)


@pytest.mark.parametrize("text, depth", [
    ("[]", 1), ("[[1], {\"a\": [[2]]}]", 4), ('["]]]]", [[]]]', 3), ('["[[[[", [[]]]', 3),
    ('[{"\\\\": "\\"[[[["}, [[]]]', 3), ('["\\\\\\"[[[", [1]]', 2), ('["\\n[[[[", 1]', 1),
    ("[" * 40 + "]" * 40, 40), ("[1," * 40 + "2" + "]" * 40, 40),
])
@pytest.mark.parametrize("wrap", [False, True])
def test_nesting_depth_ignores_brackets_in_strings(text, depth, wrap):
    json.loads(text)  # the depth is exact for valid JSON
    data = text.encode()
    if wrap:  # 21 more brackets, so that their count cannot settle it
        data, depth = b"[" + b"[1]," * 20 + data + b"]", depth + 1
    assert ioutil._nests_at_most(data, depth)
    assert not ioutil._nests_at_most(data, depth - 1)


def test_a_text_too_deep_for_orjson_does_not_crash_the_process():
    # orjson 3.8 overflows the C stack on ~1e6 nested arrays; the reader
    # must hand such a text to json instead
    script = ("import json\nfrom mulcom.ioutil import loads\n"
              "for text in ['[1,' * 10**6 + '2' + ']' * 10**6, '{\"a\":' * 10**6 + '1' + '}' * 10**6]:\n"
              "    try:\n        loads(text)\n    except json.JSONDecodeError:\n        pass\n"
              "print('survived')\n")
    src = os.path.dirname(os.path.dirname(ioutil.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "survived"


@pytest.mark.parametrize("spec", [
    dict(),  # the default corpus shape (default-3s, planted-wr)
    dict(filler_sents=16, filler_sent_len=12, motif_tropes=2),  # long synopses
])
def test_corpus_records_load_as_json_loads_gives_them(tmp_path, spec):
    manifest = save_dataset(synth_generate(21, SynthSpec(docs=12, val_frac=0.0, **spec)),
                            str(tmp_path))
    with open(os.path.join(os.path.dirname(manifest), "train.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == 12
    for line in lines:
        assert tagged(loads(line)) == tagged(json.loads(line))


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()  # renaming a file over a directory fails
    with pytest.raises(OSError):
        ioutil.atomic_write_text(str(taken), "{}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
