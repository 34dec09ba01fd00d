"""End-to-end command-line checks: artifacts, precedence, exit codes."""

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mulcom
from mulcom import cli
from mulcom.cli import build_parser, main
from mulcom.data import Dataset, load_dataset, save_dataset
from mulcom.graph import EntityMentions, FeatureDoc
from mulcom.metrics import EvalReport
from mulcom.numerics import write
from mulcom.model import (
    ModelConfig,
    TrainResult,
    build_model,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    base = tmp_path_factory.mktemp("ds")
    rc = main([
        "synth", "--out", str(base), "--docs", "30", "--vocab", "24",
        "--d-w", "6", "--d-s", "5", "--seed", "5",
    ])
    assert rc == 0
    return str(base / "manifest.json")


DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit

TINY_TRAIN = [
    "--d-f", "8", "--d-a", "8", "--d-h", "8",
    "--reasoner-steps", "2", "--reasoner-heads", "2",
]


class TestSynth:
    def test_writes_loadable_dataset(self, tiny_manifest):
        ds = load_dataset(tiny_manifest)
        assert ds.num_tropes == 8
        assert len(ds.split("train")) == 24
        assert len(ds.split("val")) == 6

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "docs": 25, "vocab": 24, "d_w": 4, "d_s": 4,
            "token_tropes": 1, "motif_tropes": 1,
        }))
        rc = main([
            "synth", "--config", str(cfg), "--out", str(tmp_path / "ds"),
            "--docs", "10",
        ])
        assert rc == 0
        ds = load_dataset(str(tmp_path / "ds" / "manifest.json"))
        assert sum(len(v) for v in ds.splits.values()) == 10
        assert ds.num_tropes == 2


class TestTrain:
    def test_epochs_zero_checkpoint_equals_init(self, tiny_manifest, tmp_path):
        rc = main([
            "train", "--data", tiny_manifest, "--out", str(tmp_path),
            "--epochs", "0", "--seed", "7", "--streams", "word", *TINY_TRAIN,
        ])
        assert rc == 0
        got = load_checkpoint(str(tmp_path / "checkpoint.json"))
        fresh = build_model(got.cfg, seed=7)
        for name, t in fresh.named_parameters().items():
            np.testing.assert_array_equal(t.data, got.named_parameters()[name].data)
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["result"]["epochs_run"] == 0
        assert report["result"]["epoch_losses"] == []
        assert report["seed"] == 7
        assert report["config"]["streams"] == ["word"]

    def test_identical_runs_byte_identical_artifacts(self, tiny_manifest, tmp_path):
        out = tmp_path / "run"
        argv = [
            "train", "--data", tiny_manifest, "--out", str(out),
            "--epochs", "1", "--seed", "3", "--streams", "word,relation",
            *TINY_TRAIN,
        ]
        assert main(argv) == 0
        stash = tmp_path / "stash"
        shutil.copytree(out, stash)
        assert main(argv) == 0
        for fname in ("checkpoint.json", "train_report.json"):
            assert (out / fname).read_bytes() == (stash / fname).read_bytes()

    def test_bad_stream_name_is_usage_error(self, tiny_manifest, tmp_path):
        rc = main([
            "train", "--data", tiny_manifest, "--out", str(tmp_path),
            "--streams", "word,telepathy", *TINY_TRAIN,
        ])
        assert rc == 2


class TestEval:
    def test_perfect_prediction_reports_100(self, tmp_path):
        # Bias-only predictor that always fires, on all-positive labels.
        rng = np.random.default_rng(0)
        docs = [
            FeatureDoc(
                doc_id=f"d{i}",
                word_feats=rng.standard_normal((3, 4)),
                sent_feats=rng.standard_normal((2, 4)),
                entities=[EntityMentions("a", (0,))],
                labels=(0, 1),
            )
            for i in range(4)
        ]
        ds = Dataset(trope_names=["t0", "t1"], splits={"test": docs})
        manifest = save_dataset(ds, str(tmp_path / "ds"))
        cfg = ModelConfig(num_tropes=2, d_w=4, d_s=4, d_f=8, d_a=8, d_h=8,
                          reasoner_steps=1, reasoner_heads=1,
                          streams=("word",))
        model = build_model(cfg, seed=0)
        last = model.predictor.layers[-1]
        write(last.w, 0.0)
        write(last.b, 10.0)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(model, str(ckpt))
        rc = main([
            "eval", "--data", manifest, "--checkpoint", str(ckpt),
            "--out", str(tmp_path), "--split", "test",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert report["report"]["micro_f1"] == 100.0
        assert report["report"]["macro_f1"] == 100.0
        assert report["report"]["mAP"] == 100.0
        assert report["config"]["split"] == "test"
        assert report["model_config"]["streams"] == ["word"]

    def test_report_holds_each_tropes_stream_mix(self, tiny_manifest, tmp_path):
        ckpt = tmp_path / "train" / "checkpoint.json"
        rc = main([
            "train", "--data", tiny_manifest, "--out", str(ckpt.parent),
            "--epochs", "1", "--seed", "3", "--streams", "word,relation", *TINY_TRAIN,
        ])
        assert rc == 0
        texts = []
        for _ in range(2):
            rc = main(["eval", "--data", tiny_manifest, "--checkpoint", str(ckpt),
                       "--out", str(tmp_path)])
            assert rc == 0
            texts.append((tmp_path / "eval_report.json").read_bytes())
        assert texts[0] == texts[1]
        mix = json.loads(texts[0])["stream_mix"]
        assert set(mix) == set(load_dataset(tiny_manifest).trope_names)
        for trope, weights in mix.items():
            assert set(weights) == {"word", "relation"}, trope
            assert all(0.0 < w < 1.0 for w in weights.values()), trope
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12), trope

    def test_trope_count_mismatch_is_runtime_error(self, tiny_manifest, tmp_path):
        cfg = ModelConfig(num_tropes=3, d_w=6, d_s=5, d_f=8, d_a=8, d_h=8,
                          reasoner_steps=1, reasoner_heads=1, streams=("word",))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(build_model(cfg, seed=0), str(ckpt))
        rc = main([
            "eval", "--data", tiny_manifest, "--checkpoint", str(ckpt),
            "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize("streams, dims, bad", [
        (("word",), {"d_w": 7}, "d_w"),
        (("sentence",), {"d_s": 3}, "d_s"),
        (("relation",), {"d_s": 3}, "d_s"),
        (("word",), {"d_s": 3}, None),  # no enabled stream reads d_s
    ], ids=["word-d_w", "sentence-d_s", "relation-d_s", "word-ignores-d_s"])
    def test_feature_dims_are_checked_against_the_checkpoint(
            self, streams, dims, bad, tiny_manifest, tmp_path, caplog):
        cfg = ModelConfig(**{"d_w": 6, "d_s": 5, **dims}, num_tropes=8, d_f=8, d_a=8,
                          d_h=8, reasoner_steps=1, reasoner_heads=1, streams=streams)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(build_model(cfg, seed=0), str(ckpt))
        rc = main([
            "eval", "--data", tiny_manifest, "--checkpoint", str(ckpt),
            "--out", str(tmp_path),
        ])
        if bad is None:
            assert rc == 0
            return
        assert rc == 1
        want = {"d_w": 6, "d_s": 5}[bad]
        assert f"has {bad}={want}, the model has {bad}={dims[bad]}" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("corrupt", [
        lambda p: [p],
        lambda p: {k: v for k, v in p.items() if k != "config"},
        lambda p: {**p, "config": ["word"]},
        lambda p: {**p, "config": {k: v for k, v in p["config"].items()
                                   if k != "streams"}},
        lambda p: {**p, "params": None},
        lambda p: {**p, "params": {**p["params"], "trope_embedding": [1.0]}},
        lambda p: {**p, "params": {**p["params"], "trope_embedding": {"shape": [8, 8]}}},
        lambda p: {**p, "params": {**p["params"], "trope_embedding": {
            **p["params"]["trope_embedding"], "data": [1.0, 2.0]}}},
        lambda p: {**p, "params": {**p["params"], "trope_embedding": {
            **p["params"]["trope_embedding"], "data": ["x"] * 64}}},
    ], ids=["list-payload", "no-config", "config-not-object", "config-no-streams",
            "params-not-object", "entry-not-object", "entry-no-data",
            "entry-short-data", "entry-text-data"])
    def test_malformed_checkpoint_is_runtime_error(self, corrupt, tiny_manifest,
                                                   tmp_path, caplog):
        cfg = ModelConfig(num_tropes=8, d_w=6, d_s=5, d_f=8, d_a=8, d_h=8,
                          reasoner_steps=1, reasoner_heads=1, streams=("word",))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(build_model(cfg, seed=0), str(ckpt))
        ckpt.write_text(json.dumps(corrupt(json.loads(ckpt.read_text()))))
        rc = main([
            "eval", "--data", tiny_manifest, "--checkpoint", str(ckpt),
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "checkpoint" in caplog.text and str(ckpt) in caplog.text
        assert "Traceback" not in caplog.text


class TestStatsAndCooccur:
    def test_stats_report_shape(self, tiny_manifest, tmp_path):
        rc = main(["stats", "--data", tiny_manifest, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "stats_report.json").read_text())
        assert set(report["stats"]) == {"train", "val"}
        train = report["stats"]["train"]
        assert set(train) == {"tropes", "words", "sentences", "roles", "corefs"}
        assert set(train["tropes"]) == {"median", "average", "min", "max", "std"}
        assert len(report["prevalence"]["train"]) == 8
        assert set(report["prevalence_summary"]["train"]) == {"median", "max", "min"}

    def test_cooccur_top_limit_and_order(self, tiny_manifest, tmp_path):
        rc = main([
            "cooccur", "--data", tiny_manifest, "--out", str(tmp_path),
            "--top", "5",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "cooccur_report.json").read_text())
        assert len(report["pairs"]) == 5
        ious = [p["iou"] for p in report["pairs"]]
        assert ious == sorted(ious, reverse=True)


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path):
        rc = main([
            "gradcheck", "--max-coords", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "full_model" in names and "message_mlp" in names
        assert all(c["ok"] for c in report["checks"])

    def test_unreachable_tolerance_fails(self):
        rc = main(["gradcheck", "--max-coords", "2", "--tolerance", "1e-18"])
        assert rc == 1

    def test_flag_defaults_are_the_library_defaults(self):
        import inspect

        from mulcom.gradcheck import CheckResult, run_gradcheck

        _, _, settings = cli.COMMANDS["gradcheck"]
        cfg = cli._resolve(build_parser().parse_args(["gradcheck"]), settings)
        run_defaults = inspect.signature(run_gradcheck).parameters
        assert cfg["eps"] == run_defaults["eps"].default == 1e-5
        assert cfg["max_coords"] == run_defaults["max_coords"].default == 8
        tol = inspect.signature(CheckResult.ok).parameters["tol"].default
        assert cfg["tolerance"] == tol == 1e-4


class TestExitCodes:
    def test_missing_required_flag(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tiny_manifest, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        rc = main([
            "stats", "--config", str(cfg), "--data", tiny_manifest,
            "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_config_file_not_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        assert main(["stats", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_deeply_nested_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(DEEP)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error: config file is not valid JSON" in err and str(cfg) in err

    @pytest.mark.parametrize("where", ["manifest", "record"])
    def test_deeply_nested_data_exits_1_without_a_traceback(self, where, tiny_manifest,
                                                            tmp_path):
        data = tmp_path / "ds"
        shutil.copytree(os.path.dirname(tiny_manifest), data)
        if where == "manifest":
            (data / "manifest.json").write_text(DEEP)
        else:
            with open(data / "train.jsonl", "a") as fh:
                fh.write(DEEP + "\n")
        src = os.path.dirname(os.path.dirname(mulcom.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "mulcom.cli", "stats", "--data", str(data / "manifest.json"),
             "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(data / ("manifest.json" if where == "manifest" else "train.jsonl")) in proc.stderr

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        rc = main([
            "stats", "--data", str(tmp_path / "gone.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize("command", ["train", "stats"])
    @pytest.mark.parametrize("corrupt", [
        lambda m: [m],
        lambda m: {**m, "splits": list(m["splits"].values())},
        lambda m: {**m, "splits": {k: v[0] for k, v in m["splits"].items()}},
    ], ids=["list-manifest", "splits-list", "files-not-list"])
    def test_malformed_manifest_is_runtime_error(self, command, corrupt,
                                                 tiny_manifest, tmp_path, caplog):
        bad = tmp_path / "manifest.json"
        with open(tiny_manifest) as fh:
            bad.write_text(json.dumps(corrupt(json.load(fh))))
        args = [command, "--data", str(bad), "--out", str(tmp_path / "out")]
        if command == "train":
            args += ["--epochs", "1", *TINY_TRAIN]
        rc = main(args)
        assert rc == 1
        assert str(bad) in caplog.text
        assert "Traceback" not in caplog.text

    def test_bad_threads_value(self, tiny_manifest, tmp_path):
        rc = main([
            "stats", "--data", tiny_manifest, "--out", str(tmp_path),
            "--threads", "0",
        ])
        assert rc == 2

    @pytest.mark.parametrize("text, error", [
        ("[1, 2]", "must be a JSON object"),
        (None, "cannot read config file"),  # a directory
    ], ids=["list", "unreadable"])
    def test_config_file_that_is_no_object_is_usage_error(self, text, error, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        if text is None:
            cfg.mkdir()
        else:
            cfg.write_text(text)
        assert main(["gradcheck", "--config", str(cfg), "--max-coords", "1"]) == 2
        err = capsys.readouterr().err
        assert "usage error: " in err and error in err

    @pytest.mark.parametrize("argv, error", [
        (["synth", "--docs", "0"], "docs must be >= 1"),
        (["synth", "--token-tropes", "-1"], "trope counts must be >= 0"),
        (["synth", "--token-tropes", "0", "--motif-tropes", "0"], "need at least one trope"),
        (["synth", "--filler-sents", "0"], "filler layout values must be >= 1"),
        (["synth", "--val-frac", "1"], "val_frac must be in [0, 1)"),
        (["synth", "--d-w", "0"], "embedding dims must be >= 1"),
        (["train", "--learning-rate", "-1", "--epochs", "1"], "learning_rate must be >= 0"),
        (["train", "--epochs", "-1"], "epochs must be >= 0"),
        (["train", "--batch-size", "0", "--epochs", "1"], "batch_size must be >= 1"),
        (["train", "--pos-weight", "0", "--epochs", "1"], "pos_weight must be positive"),
        (["train", "--d-h", "10", "--reasoner-heads", "4", "--epochs", "1"],
         "hidden dim 10 not divisible by 4 heads"),
    ], ids=["docs", "token-tropes", "no-tropes", "filler-sents", "val-frac", "d-w",
            "learning-rate", "epochs", "batch-size", "pos-weight", "d-h-heads"])
    def test_setting_out_of_range_is_usage_error(self, argv, error, tiny_manifest, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        if argv[0] == "train":
            argv = argv + ["--data", tiny_manifest]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"usage error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, error", [
        ("train", "split 'train' is empty"),
        ("eval", "split 'val' is empty"),
        ("cooccur", "split 'train' is empty"),
    ])
    def test_empty_split_is_runtime_error(self, command, error, tiny_manifest, tiny_checkpoint,
                                          tmp_path, caplog):
        docs = load_dataset(tiny_manifest).split("train")
        splits = {"train": docs, "val": []} if command == "eval" else {"train": [], "val": docs}
        manifest = save_dataset(Dataset([f"t{k}" for k in range(8)], splits),
                                str(tmp_path / "ds"))
        argv = [command, "--data", manifest, "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--checkpoint", tiny_checkpoint]
        assert main(argv) == 1
        assert f"{manifest}: {error}" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "cooccur"])
    def test_missing_split_names_the_manifest(self, command, tiny_manifest, tiny_checkpoint,
                                              tmp_path, caplog):
        docs = load_dataset(tiny_manifest).split("val")
        manifest = save_dataset(Dataset([f"t{k}" for k in range(8)], {"val": docs}),
                                str(tmp_path / "ds"))
        argv = [command, "--data", manifest, "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--checkpoint", tiny_checkpoint, "--split", "train"]
        assert main(argv) == 1
        assert f"{manifest}: dataset has no 'train' split" in caplog.text

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["stats", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg", [
        ("train", {"epochs": "3"}),
        ("train", {"epochs": 2.5}),
        ("synth", {"docs": "10"}),
        ("synth", {"vocab": 30.5}),
        ("cooccur", {"top": "5"}),
        ("train", {"streams": 5}),
        ("stats", {"seed": "x"}),
        ("train", {"threshold": "0.5"}),
        ("train", {"pos_weight": "2"}),
        ("train", {"batch_size": True}),
        ("stats", {"threads": True}),
        ("train", {"learning_rate": math.nan}),
        ("eval", {"split": 3}),
        ("gradcheck", {"eps": math.inf}),
    ])
    def test_wrong_config_value_type_is_usage_error(self, command, cfg, tiny_manifest,
                                                    tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command in ("train", "eval", "stats", "cooccur"):
            argv += ["--data", tiny_manifest]
        assert main(argv) == 2
        (key,) = cfg
        assert f"usage error: config file {path}: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["gradcheck", "--max-coords", "0"], "max_coords"),
        (["gradcheck", "--max-coords", "-1"], "max_coords"),
        (["gradcheck", "--eps", "0"], "eps"),
        (["gradcheck", "--tolerance", "0"], "tolerance"),
        (["train", "--learning-rate", "nan"], "learning_rate"),
        (["eval", "--threshold", "1.5"], "threshold"),
        (["train", "--early-stop-f1", "200"], "early_stop_f1"),
        (["train", "--early-stop-f1", "-1"], "early_stop_f1"),
    ])
    def test_bad_flag_value_is_usage_error(self, argv, key, tmp_path, capsys):
        # the missing dataset and checkpoint would exit 1 if they were read first
        gone = str(tmp_path / "gone.json")
        if argv[0] == "train":
            argv = argv + ["--data", gone]
        elif argv[0] == "eval":
            argv = argv + ["--data", gone, "--checkpoint", gone]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and key in err


PARENT_FLAGS = {
    "synth": {"--d-s", "--d-w", "--docs", "--filler-sent-len", "--filler-sents",
              "--motif-tropes", "--out", "--seed", "--threads", "--token-tropes",
              "--trigger-prob", "--val-frac", "--vocab"},
    "train": {"--batch-size", "--d-a", "--d-f", "--d-h", "--data", "--early-stop-f1",
              "--epochs", "--learning-rate", "--out", "--pos-weight", "--reasoner-heads",
              "--reasoner-steps", "--relation-reasoner", "--seed", "--streams",
              "--threads", "--threshold"},
    "eval": {"--checkpoint", "--data", "--out", "--seed", "--split", "--threads",
             "--threshold"},
    "stats": {"--data", "--out", "--seed", "--threads"},
    "cooccur": {"--data", "--out", "--seed", "--split", "--threads", "--top"},
    "gradcheck": {"--eps", "--max-coords", "--out", "--seed", "--threads", "--tolerance"},
}


class TestDeclaredSettings:
    def test_each_subcommand_keeps_its_flags(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {o for a in p._actions for o in a.option_strings}
            - {"-h", "--help", "--config"}
            for name, p in sub.choices.items()
        }
        assert got == PARENT_FLAGS

    def test_cli_loads_no_numpy(self):
        # --threads caps the BLAS threads, which only works before numpy loads
        code = (
            "import contextlib, io, sys\n"
            "import mulcom.cli as cli\n"
            "cli.build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        cli.main(['train', '--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(mulcom.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_version_is_the_package_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"mulcom {mulcom.__version__}"


@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    rc = main(["train", "--data", tiny_manifest, "--out", str(out), "--epochs", "1",
               "--streams", "word", *TINY_TRAIN])
    assert rc == 0
    return str(out / "checkpoint.json")


def report_argv(command, out, manifest, checkpoint):
    """A run of `command` that writes its report to `out`, with the flags of ROUND_TRIP."""
    argv = [command, "--out", str(out), *ROUND_TRIP[command]]
    if command != "gradcheck":
        argv += ["--data", manifest]
    if command == "eval":
        argv += ["--checkpoint", checkpoint]
    return argv


ROUND_TRIP = {
    "train": ["--epochs", "1", "--seed", "3", "--streams", "word, relation",
              "--pos-weight", "2", "--relation-reasoner", "rrn", *TINY_TRAIN],
    "eval": ["--split", "train", "--threshold", "0.4"],
    "stats": ["--seed", "9"],
    "cooccur": ["--top", "4", "--split", "val"],
    "gradcheck": ["--max-coords", "2", "--eps", "1e-6", "--seed", "2"],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_report_config_reruns_identically(command, tiny_manifest, tiny_checkpoint,
                                          tmp_path):
    """A report's config block, fed back through --config, re-runs to the same bytes.

    synth writes no report, so it has no config block to feed back.
    """
    out = tmp_path / "run"
    assert main(report_argv(command, out, tiny_manifest, tiny_checkpoint)) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    report = json.loads(first[f"{command}_report.json"])
    assert {"--" + k.replace("_", "-") for k in report["config"]} == PARENT_FLAGS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(report["config"]))
    shutil.rmtree(out)
    assert main([command, "--config", str(cfg)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


REPORT_FIELDS = {  # each report's fields after the envelope
    "train": {"model_config", "dataset", "result"},
    "eval": {"model_config", "report", "stream_mix"},
    "stats": {"trope_names", "stats", "prevalence", "prevalence_summary"},
    "cooccur": {"pairs"},
    "gradcheck": {"tolerance", "checks"},
}


@pytest.mark.parametrize("command", sorted(REPORT_FIELDS))
def test_each_report_is_the_envelope_plus_the_commands_fields(
        command, tiny_manifest, tiny_checkpoint, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(report_argv(command, out, tiny_manifest, tiny_checkpoint)) == 0
    written = {p.name for p in out.iterdir()}
    assert written == {f"{command}_report.json"} | ({"checkpoint.json"} if command == "train"
                                                   else set())
    report = json.loads((out / f"{command}_report.json").read_text())
    assert set(report) == {"command", "seed", "config"} | REPORT_FIELDS[command]
    assert report["command"] == command
    assert report["seed"] == report["config"]["seed"]
    if command == "train":
        assert set(report["result"]) == {f.name for f in dataclasses.fields(TrainResult)}
    if command == "eval":
        assert set(report["report"]) == {f.name for f in dataclasses.fields(EvalReport)}
    if command == "gradcheck":  # its report is optional: no --out, no file
        quiet = tmp_path / "quiet"
        quiet.mkdir()
        monkeypatch.chdir(quiet)
        assert main(["gradcheck", *ROUND_TRIP["gradcheck"]]) == 0
        assert list(quiet.iterdir()) == []
