"""Property tests: malformed inputs end as typed errors, never as tracebacks.

Valid manifests, JSONL records and checkpoints are mutated (a key
dropped, a value given the wrong type, NaN or infinity, the text cut
short, the whole document replaced by a non-object) and fed to the
loaders and the command line. `load_dataset` and `load_checkpoint` may
only raise `MulComError` subclasses, and `mulcom train`, `eval` and
`stats` may only exit with 0, 1 or 2. A valid config file with one key
given a value of the wrong type must be a usage error (exit 2) for
every subcommand. The examples are derandomized, so every run checks
the same inputs.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mulcom.cli import main
from mulcom.data import Dataset, load_dataset, save_dataset
from mulcom.errors import DataFormatError, MulComError
from mulcom.graph import EntityMentions, FeatureDoc
from mulcom.model import ModelConfig, build_model, load_checkpoint, save_checkpoint


def _settings(examples):
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


WRONG = [None, True, 0, -1, 2.5, "x", "", [], {}, [None], {"a": 1},
         math.nan, math.inf, -math.inf]


def _draw_path(obj, data, at_least=0):
    """A location in JSON value `obj`, reached by descending at random.

    Shallow locations are the likeliest; a list offers its first two items.
    """
    path = ()
    while isinstance(obj, (dict, list)) and obj:
        if len(path) >= at_least and not data.draw(st.booleans()):
            break
        key = data.draw(st.sampled_from(list(obj) if isinstance(obj, dict) else [0, 1][: len(obj)]))
        path += (key,)
        obj = obj[key]
    return path


def _mutate(obj, data):
    """A copy of JSON value `obj` with one drawn mutation, as JSON text."""
    obj = json.loads(json.dumps(obj))
    kind = data.draw(st.sampled_from(["drop", "replace", "truncate", "non-object"]))
    if kind == "non-object":
        return json.dumps(data.draw(st.sampled_from([[obj], "x", 3, None, []])))
    if kind == "truncate":
        text = json.dumps(obj)
        return text[: data.draw(st.integers(0, len(text) - 1))]
    path = _draw_path(obj, data, at_least=1 if kind == "drop" else 0)
    if not path:
        return json.dumps(data.draw(st.sampled_from(WRONG)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(WRONG))
    return json.dumps(obj)


def _tiny_dataset():
    rng = np.random.default_rng(0)
    docs = {
        split: [
            FeatureDoc(
                doc_id=f"{split}{i}",
                word_feats=rng.standard_normal((3, 4)),
                sent_feats=rng.standard_normal((2, 3)),
                entities=[EntityMentions("a", (0,)), EntityMentions("b", (0, 1))],
                labels=(i % 2,),
            )
            for i in range(3)
        ]
        for split in ("train", "val")
    }
    return Dataset(trope_names=["t0", "t1"], splits=docs)


TINY_MODEL = ["--d-f", "4", "--d-a", "4", "--d-h", "4",
              "--reasoner-steps", "1", "--reasoner-heads", "1"]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid dataset directory and checkpoint, read back as JSON."""
    base = tmp_path_factory.mktemp("valid")
    manifest = save_dataset(_tiny_dataset(), str(base / "ds"))
    cfg = ModelConfig(num_tropes=2, d_w=4, d_s=3, d_f=4, d_a=4, d_h=4,
                      reasoner_steps=1, reasoner_heads=1)
    ckpt = str(base / "checkpoint.json")
    save_checkpoint(build_model(cfg, seed=0), ckpt)
    with open(manifest) as fh:
        manifest_obj = json.load(fh)
    with open(os.path.join(os.path.dirname(manifest), "train.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    with open(ckpt) as fh:
        ckpt_obj = json.load(fh)
    return {"dir": os.path.dirname(manifest), "manifest": manifest_obj,
            "records": records, "checkpoint": ckpt_obj}


def _write_dataset(valid, out_dir, manifest_text=None, record=None):
    """Copy the valid dataset to `out_dir`, replacing the manifest or one record."""
    for name in os.listdir(valid["dir"]):
        with open(os.path.join(valid["dir"], name)) as src:
            text = src.read()
        with open(os.path.join(out_dir, name), "w") as dst:
            dst.write(text)
    if manifest_text is not None:
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            fh.write(manifest_text)
    if record is not None:
        index, text = record
        lines = [json.dumps(r) for r in valid["records"]]
        lines[index] = text.replace("\n", " ")
        with open(os.path.join(out_dir, "train.jsonl"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return os.path.join(out_dir, "manifest.json")


def _mutated_dataset(valid, out_dir, data):
    if data.draw(st.booleans()):
        return _write_dataset(valid, out_dir, manifest_text=_mutate(valid["manifest"], data))
    index = data.draw(st.integers(0, len(valid["records"]) - 1))
    text = _mutate(valid["records"][index], data)
    return _write_dataset(valid, out_dir, record=(index, text))


def _load_or_typed_error(load, path):
    try:
        load(path)
    except DataFormatError as exc:
        assert exc.path is not None  # names the file it could not read
    except MulComError:
        pass


@_settings(300)
@given(data=st.data())
def test_load_dataset_raises_only_typed_errors(valid, data):
    with tempfile.TemporaryDirectory() as out:
        _load_or_typed_error(load_dataset, _mutated_dataset(valid, out, data))


@_settings(300)
@given(data=st.data())
def test_load_checkpoint_raises_only_typed_errors(valid, data):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "checkpoint.json")
        with open(path, "w") as fh:
            fh.write(_mutate(valid["checkpoint"], data))
        _load_or_typed_error(load_checkpoint, path)


@_settings(20)
@given(data=st.data(), command=st.sampled_from(["train", "stats"]))
def test_train_and_stats_exit_cleanly_on_mutated_data(valid, data, command):
    with tempfile.TemporaryDirectory() as out:
        manifest = _mutated_dataset(valid, out, data)
        args = [command, "--data", manifest, "--out", os.path.join(out, "run")]
        if command == "train":
            args += ["--epochs", "1", *TINY_MODEL]
        assert main(args) in (0, 1, 2)


@_settings(20)
@given(data=st.data())
def test_eval_exits_cleanly_on_mutated_checkpoint(valid, data):
    with tempfile.TemporaryDirectory() as out:
        manifest = _write_dataset(valid, out)
        ckpt = os.path.join(out, "checkpoint.json")
        with open(ckpt, "w") as fh:
            fh.write(_mutate(valid["checkpoint"], data))
        rc = main(["eval", "--data", manifest, "--checkpoint", ckpt,
                   "--out", os.path.join(out, "run")])
        assert rc in (0, 1, 2)


def _valid_config(valid, out, command):
    """A config file body that runs `command` to exit 0 on the valid inputs."""
    common = {"out": os.path.join(out, "run"), "seed": 0, "threads": 1}
    manifest = _write_dataset(valid, out)
    ckpt = os.path.join(out, "checkpoint.json")
    with open(ckpt, "w") as fh:
        json.dump(valid["checkpoint"], fh)
    return {
        "synth": {**common, "docs": 10, "token_tropes": 1, "motif_tropes": 1, "vocab": 24,
                  "d_w": 4, "d_s": 4, "trigger_prob": 0.4, "filler_sents": 2,
                  "filler_sent_len": 4, "val_frac": 0.2},
        "train": {**common, "data": manifest, "d_f": 4, "d_a": 4, "d_h": 4,
                  "reasoner_steps": 1, "reasoner_heads": 1, "relation_reasoner": "msrrn",
                  "streams": "word,relation", "epochs": 1, "batch_size": 2,
                  "learning_rate": 1e-3, "pos_weight": None, "threshold": 0.5,
                  "early_stop_f1": None},
        "eval": {**common, "data": manifest, "checkpoint": ckpt, "split": "val",
                 "threshold": 0.5},
        "stats": {**common, "data": manifest},
        "cooccur": {**common, "data": manifest, "split": "train", "top": 3},
        "gradcheck": {**common, "eps": 1e-5, "max_coords": 1, "tolerance": 1e-4},
    }[command]


FLOATS = {"trigger_prob", "val_frac", "learning_rate", "threshold", "eps", "tolerance"}
STRINGS = {"split"}


def _wrong_type(key, value):
    """Whether `value` is not of the type setting `key` takes."""
    if key in ("pos_weight", "early_stop_f1", "out", "data", "checkpoint") and value is None:
        return False
    if key == "relation_reasoner":
        return value not in ("msrrn", "rrn")
    if key == "streams":  # a comma-separated string or a list of names
        return not (isinstance(value, str) or isinstance(value, list)
                    and all(isinstance(v, str) for v in value))
    if key in STRINGS or key in ("out", "data", "checkpoint"):
        return not isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return not math.isfinite(value) if key in FLOATS else not isinstance(value, int)


COMMANDS = ["synth", "train", "eval", "stats", "cooccur", "gradcheck"]


def _run(command, cfg, out):
    path = os.path.join(out, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", path])
    return rc, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_configs_run(valid, command):
    with tempfile.TemporaryDirectory() as out:
        assert _run(command, _valid_config(valid, out, command), out)[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
@_settings(25)
@given(data=st.data())
def test_wrong_setting_type_is_usage_error(valid, command, data):
    with tempfile.TemporaryDirectory() as out:
        cfg = _valid_config(valid, out, command)
        key, value = data.draw(st.sampled_from(
            [(k, v) for k in sorted(cfg) for v in WRONG if _wrong_type(k, v)]))
        cfg[key] = value
        rc, err = _run(command, cfg, out)
        assert rc == 2
        assert "usage error: config file " in err and f": {key} must be" in err
        assert "Traceback" not in err
