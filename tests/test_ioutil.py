"""The JSON file boundary: `ioutil.loads` against `json.loads`, and bad files.

A derandomized property draws JSON texts from nested values (floats
from raw bit patterns, NaN and infinities, 64-bit integers, strings with
non-ASCII characters and lone surrogates, written in both `ensure_ascii`
forms), plus truncations and single-character corruptions of them. For
every text the reader must give `json.loads`'s value, floats bit for
bit, or raise `json.JSONDecodeError` with `json.loads`'s message.

A manifest, a checkpoint or a record file that cannot be read, parsed
or accepted must raise a `DataFormatError` whose `.path` is the file,
and the same bytes as a `--config` file must be a usage error. A file
that cannot be written raises one too, and leaves no temp file behind.
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
from mulcom.cli import main
from mulcom.config import ModelConfig, SynthSpec
from mulcom.data import load_dataset, save_dataset, synth_generate
from mulcom.errors import DataFormatError
from mulcom.ioutil import loads
from mulcom.model import build_model, load_checkpoint, save_checkpoint

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
    with pytest.raises(DataFormatError, match="cannot write file") as info:
        ioutil.atomic_write_text(str(taken), "{}\n")
    assert info.value.path == str(taken)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_a_write_into_a_missing_directory_names_the_target(tmp_path):
    target = str(tmp_path / "missing" / "report.json")
    with pytest.raises(DataFormatError, match="cannot write file") as info:
        ioutil.write_json(target, {"a": 1})
    assert info.value.path == target
    assert list(tmp_path.iterdir()) == []


def test_a_checkpoint_saved_over_a_directory_names_it(tmp_path):
    model = build_model(ModelConfig(num_tropes=2, d_w=3, d_s=3, d_f=4, d_a=4, d_h=4,
                                    streams=("word",)))
    with pytest.raises(DataFormatError) as info:
        save_checkpoint(model, str(tmp_path))
    assert info.value.path == str(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_other_write_failures_clean_up_and_propagate_unchanged(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(ioutil.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ioutil.atomic_write_text(str(tmp_path / "report.json"), "{}\n")
    assert list(tmp_path.iterdir()) == []


def _envelope_file(kind, directory):
    """A valid manifest or checkpoint in `directory`: its path and its loader."""
    if kind == "manifest":
        return save_dataset(synth_generate(3, SynthSpec(docs=4)), str(directory)), load_dataset
    path = str(directory / "checkpoint.json")
    save_checkpoint(build_model(ModelConfig(num_tropes=2, d_w=3, d_s=3, d_f=4, d_a=4, d_h=4,
                                            streams=("word",))), path)
    return path, load_checkpoint


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


DIRECTORY = object()  # a directory where the file should be
BAD_FILES = {  # each case: the valid object -> the bad file's text, None for no file, or DIRECTORY
    "version-true": lambda o: json.dumps({**o, "version": True}),
    "version-float": lambda o: json.dumps({**o, "version": 1.0}),
    "version-string": lambda o: json.dumps({**o, "version": "1"}),
    "version-2": lambda o: json.dumps({**o, "version": 2}),
    "no-version": lambda o: json.dumps(_without(o, "version")),
    "wrong-format": lambda o: json.dumps({**o, "format": "mulcom-other"}),
    "no-format": lambda o: json.dumps(_without(o, "format")),
    "list": lambda o: json.dumps([o]),
    "missing": lambda o: None,
    "directory": lambda o: DIRECTORY,
    "not-utf8": lambda o: b'{"format": "\xff"}',
    "invalid-json": lambda o: json.dumps(o)[:-1],
    "too-deep": lambda o: '{"a":' * 100_000 + "1" + "}" * 100_000,
}


def _write_bad(path, text):
    os.remove(path)
    if text is DIRECTORY:
        os.mkdir(path)
    elif isinstance(text, bytes):
        with open(path, "wb") as fh:
            fh.write(text)
    elif text is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@pytest.mark.parametrize("case", list(BAD_FILES))
@pytest.mark.parametrize("kind", ["manifest", "checkpoint"])
def test_a_bad_manifest_or_checkpoint_is_a_data_format_error_naming_it(kind, case, tmp_path):
    path, load = _envelope_file(kind, tmp_path)
    with open(path, encoding="utf-8") as fh:
        _write_bad(path, BAD_FILES[case](json.load(fh)))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.path == path and err.value.line is None


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_a_bad_config_file_is_a_usage_error(case, tmp_path, capsys):
    path, _ = _envelope_file("manifest", tmp_path)
    with open(path, encoding="utf-8") as fh:
        _write_bad(path, BAD_FILES[case](json.load(fh)))
    assert main(["stats", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "usage error: " in err and "Traceback" not in err


@pytest.mark.parametrize("case, line", [("missing", None), ("not-json", 2)])
def test_a_bad_record_file_names_the_file_and_line(case, line, tmp_path):
    manifest = save_dataset(synth_generate(3, SynthSpec(docs=4, val_frac=0.0)), str(tmp_path))
    records = str(tmp_path / "train.jsonl")
    if case == "missing":
        os.remove(records)
    else:
        with open(records, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[1] = lines[1][:-3] + "\n"
        with open(records, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    with pytest.raises(DataFormatError) as err:
        load_dataset(manifest)
    assert (err.value.path, err.value.line) == (records, line)
