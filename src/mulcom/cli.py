"""Command-line entry point for reproducible runs.

Subcommands: synth | train | eval | stats | gradcheck | cooccur.
Each setting is one `Setting` (the synth, train and gradcheck ones are
the fields of `SynthSpec`, `ModelConfig`, `TrainConfig` and
`GradcheckConfig`), which gives its flag, config-file key, type check
and default. Settings resolve flag > config-file key > default; a value
of the wrong type is a usage error.
Each command returns its exit code and its report's fields, or None;
`main` adds `command`, `seed` and `config` and writes them all to
`<out>/<command>_report.json`. Files are written atomically, logs go to
standard error only.

Heavy imports happen inside the command handlers so the --threads cap
can reach the numerics backend before it loads.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
import types
import typing
from dataclasses import MISSING, asdict, fields
from typing import Literal, NamedTuple, Sequence

from . import __version__
from .config import (
    GradcheckConfig,
    ModelConfig,
    SynthSpec,
    TrainConfig,
    check_threshold,
    check_type,
)
from .errors import ConfigError, DataFormatError, MulComError, ValidationError
from .ioutil import read_json, write_json

log = logging.getLogger("mulcom.cli")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Setting(NamedTuple):
    """One run setting: the flag `--name` and the config-file key `name`."""

    name: str
    type: object  # a field annotation, as `config.check_type` reads it
    default: object
    help: str | None = None


def _field_settings(cls, exclude: Sequence[str] = ()) -> dict[str, Setting]:
    """The defaulted fields of dataclass `cls` as settings."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: Setting(f.name, hints[f.name], f.default, f.metadata.get("help"))
        for f in fields(cls)
        if f.default is not MISSING and f.name not in exclude
    }


SYNTH = _field_settings(SynthSpec)
# max_word_tokens is a memory guard, not a run setting; --seed fills TrainConfig's seed
MODEL = _field_settings(ModelConfig, exclude=("max_word_tokens",))
TRAINING = _field_settings(TrainConfig, exclude=("seed",))
GRADCHECK = _field_settings(GradcheckConfig)

SETTINGS = {s.name: s for s in (
    Setting("out", str | None, None, "artifact directory"),
    Setting("seed", int, 0, "run seed, taken modulo 2**64"),
    Setting("threads", int, 1, "numeric-backend thread cap; 1 keeps runs byte-reproducible"),
    Setting("data", str | None, None, "dataset manifest.json"),
    Setting("checkpoint", str | None, None, "checkpoint.json to evaluate"),
    Setting("split", str, "val", "dataset split to read"),
    Setting("top", int, 15, "rows to keep (<= 0 keeps all)"),
)}
COMMON = tuple(SETTINGS[k] for k in ("out", "seed", "threads"))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve(args, settings: Sequence[Setting]) -> dict:
    """Merge flag > config file > default and type-check each value."""
    try:
        file_cfg = {} if args.config is None else read_json(args.config, "config file")
    except DataFormatError as exc:  # a usage error, like a bad flag
        raise ConfigError(str(exc)) from None
    known = {s.name for s in settings}
    unknown = set(file_cfg) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; expected among {sorted(known)}"
        )
    cfg = {}
    for s in settings:
        flag = getattr(args, s.name)
        value = flag if flag is not None else file_cfg.get(s.name, s.default)
        if isinstance(value, str) and typing.get_origin(s.type) is tuple:  # "a, b"
            value = tuple(p for p in map(str.strip, value.split(",")) if p)
        try:
            check_type(s.name, value, s.type)
        except ConfigError as exc:
            where = _flag(s.name) if flag is not None else f"config file {args.config}"
            raise ConfigError(f"{where}: {exc}") from None
        cfg[s.name] = value
    return cfg


def _require(cfg: dict, key: str, command: str):
    if cfg[key] is None:
        raise ConfigError(f"{command} needs {_flag(key)}")
    return cfg[key]


def _set_thread_caps(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(threads)
    if "numpy" in sys.modules:
        log.debug("numpy already loaded; thread caps may not take effect")


def _load_split(manifest: str, split: str):
    """The dataset at `manifest` and the docs of its `split`; a ValidationError if none."""
    from .data import load_dataset

    ds = load_dataset(manifest)
    try:
        docs = ds.split(split)
    except ValidationError as exc:  # no such split
        raise ValidationError(f"{manifest}: {exc}") from None
    if not docs:
        raise ValidationError(f"{manifest}: split {split!r} is empty")
    return ds, docs


def cmd_synth(cfg: dict) -> tuple[int, dict | None]:
    out_dir = _require(cfg, "out", "synth")
    from .data import save_dataset, synth_generate

    ds = synth_generate(cfg["seed"], SynthSpec(**{k: cfg[k] for k in SYNTH}))
    manifest = save_dataset(ds, out_dir)
    counts = {name: len(docs) for name, docs in ds.splits.items()}
    log.info("wrote %s (%s docs, %d tropes)", manifest, counts, ds.num_tropes)
    return EXIT_OK, None


def cmd_train(cfg: dict) -> tuple[int, dict | None]:
    out_dir = _require(cfg, "out", "train")
    manifest = _require(cfg, "data", "train")
    from .model import build_model, save_checkpoint, train

    tcfg = TrainConfig(seed=cfg["seed"], **{k: cfg[k] for k in TRAINING})  # before any read
    ds, train_docs = _load_split(manifest, "train")
    val_docs = ds.splits.get("val") or None
    mcfg = ModelConfig(
        num_tropes=ds.num_tropes,
        d_w=train_docs[0].word_feats.shape[1],
        d_s=train_docs[0].sent_feats.shape[1],
        **{k: cfg[k] for k in MODEL},
    )
    model = build_model(mcfg, seed=cfg["seed"])
    result = train(model, train_docs, tcfg, val_docs=val_docs)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(model, ckpt_path)
    log.info("wrote %s", ckpt_path)
    return EXIT_OK, {
        "model_config": mcfg.to_dict(),
        "dataset": {
            "manifest": manifest,
            "train_docs": len(train_docs),
            "val_docs": 0 if val_docs is None else len(val_docs),
        },
        "result": asdict(result),
    }


def cmd_eval(cfg: dict) -> tuple[int, dict | None]:
    _require(cfg, "out", "eval")
    manifest = _require(cfg, "data", "eval")
    ckpt = _require(cfg, "checkpoint", "eval")
    check_threshold(cfg["threshold"])
    from .graph import label_matrix
    from .metrics import evaluate
    from .model import load_checkpoint, score_dataset, stream_attention

    ds, docs = _load_split(manifest, cfg["split"])
    model = load_checkpoint(ckpt)
    if model.cfg.num_tropes != ds.num_tropes:
        raise ValidationError(
            f"checkpoint has {model.cfg.num_tropes} tropes, "
            f"dataset has {ds.num_tropes}"
        )
    scores = score_dataset(model, docs)
    labels = label_matrix(docs, ds.num_tropes)
    rep = evaluate(
        scores, labels, threshold=cfg["threshold"], trope_names=ds.trope_names
    )
    log.info(
        "%s split: micro-F1 %.2f macro-F1 %.2f mAP %.2f",
        cfg["split"], rep.micro_f1, rep.macro_f1, rep.mAP,
    )
    return EXIT_OK, {
        "model_config": model.cfg.to_dict(),
        "report": rep.to_dict(),
        # each trope's softmax weight on each stream, as the model mixes them
        "stream_mix": {
            trope: dict(zip(model.cfg.streams, row.tolist()))
            for trope, row in zip(ds.trope_names, stream_attention(model))
        },
    }


def cmd_stats(cfg: dict) -> tuple[int, dict | None]:
    _require(cfg, "out", "stats")
    manifest = _require(cfg, "data", "stats")
    from .data import corpus_stats, load_dataset, trope_prevalence

    ds = load_dataset(manifest)
    stats = corpus_stats(ds)
    prevalence = {}
    summary = {}
    for split, docs in ds.splits.items():
        if not docs:
            continue
        prev = trope_prevalence(docs, ds.num_tropes)
        prevalence[split] = {
            name: p for name, p in zip(ds.trope_names, prev)
        }
        median = statistics.median(prev)
        summary[split] = {"median": median, "max": max(prev), "min": min(prev)}
        log.info(
            "%s: %d docs, prevalence median %.2f%% max %.2f%%",
            split, len(docs), median, max(prev),
        )
    return EXIT_OK, {
        "trope_names": ds.trope_names,
        "stats": stats,
        "prevalence": prevalence,
        "prevalence_summary": summary,
    }


def cmd_cooccur(cfg: dict) -> tuple[int, dict | None]:
    _require(cfg, "out", "cooccur")
    manifest = _require(cfg, "data", "cooccur")
    from .data import cooccurrence_iou

    ds, docs = _load_split(manifest, cfg["split"])
    pairs = cooccurrence_iou(docs, ds.num_tropes)
    if cfg["top"] > 0:
        pairs = pairs[: cfg["top"]]
    ranked = [
        {"a": ds.trope_names[a], "b": ds.trope_names[b], "iou": v}
        for a, b, v in pairs
    ]
    for row in ranked[:5]:
        log.info("%.4f  %s / %s", row["iou"], row["a"], row["b"])
    return EXIT_OK, {"pairs": ranked}


def cmd_gradcheck(cfg: dict) -> tuple[int, dict | None]:
    gcfg = GradcheckConfig(**{k: cfg[k] for k in GRADCHECK})
    tol = gcfg.tolerance
    from .gradcheck import run_gradcheck

    results = run_gradcheck(seed=cfg["seed"], eps=gcfg.eps, max_coords=gcfg.max_coords)
    all_ok = True
    for r in results:
        ok = r.ok(tol)
        all_ok = all_ok and ok
        log.info(
            "%-22s max rel err %.3e  %-4s (%.2fs)",
            r.name, r.max_err, "ok" if ok else "FAIL", r.seconds,
        )
    return EXIT_OK if all_ok else EXIT_RUNTIME, {
        "tolerance": tol,
        "checks": [
            {"name": r.name, "max_err": r.max_err, "ok": r.ok(tol)} for r in results
        ],
    }


COMMANDS = {  # name: (handler, help, settings)
    "synth": (cmd_synth, "generate a planted synthetic dataset",
              (*COMMON, *SYNTH.values())),
    "train": (cmd_train, "train a model and write checkpoint + report",
              (*COMMON, SETTINGS["data"], *MODEL.values(), *TRAINING.values())),
    "eval": (cmd_eval, "evaluate a checkpoint on one split",
             (*COMMON, SETTINGS["data"], SETTINGS["checkpoint"], SETTINGS["split"],
              TRAINING["threshold"])),
    "stats": (cmd_stats, "corpus statistics and trope prevalence",
              (*COMMON, SETTINGS["data"])),
    "cooccur": (cmd_cooccur, "trope co-occurrence ranking by overlap",
                (*COMMON, SETTINGS["data"], SETTINGS["split"]._replace(default="train"),
                 SETTINGS["top"])),
    "gradcheck": (cmd_gradcheck, "finite-difference audit of every component",
                  (*COMMON, *GRADCHECK.values())),
}


def _flag_options(annotation) -> dict:
    """argparse options for a setting's flag; `_resolve` checks the value."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return _flag_options(next(a for a in args if a is not type(None)))
    if origin is Literal:
        return {"choices": args}
    return {"type": annotation} if annotation in (int, float) else {}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mulcom",
        description="Multi-level trope detection over movie-synopsis features.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, settings) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config", metavar="PATH",
            help="JSON file with the same keys as the flags; flags win",
        )
        for s in settings:
            p.add_argument(_flag(s.name), help=s.help, **_flag_options(s.type))
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    run, _, settings = COMMANDS[args.command]
    try:
        cfg = _resolve(args, settings)
        _set_thread_caps(cfg["threads"])
        code, body = run(cfg)
        if body is not None and cfg["out"] is not None:  # gradcheck's --out is optional
            os.makedirs(cfg["out"], exist_ok=True)
            path = os.path.join(cfg["out"], f"{args.command}_report.json")
            report = {"command": args.command, "seed": cfg["seed"], "config": cfg, **body}
            write_json(path, report)
            log.info("wrote %s", path)
        return code
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MulComError as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
