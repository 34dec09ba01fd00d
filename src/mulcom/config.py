"""Run settings: the planted corpus, the model, training and the gradient audit.

Each field's annotation is the setting's type and its default the
setting's default; `__post_init__` checks every value against its
annotation. The command line builds its flags and config-file checks
from these fields, so this module imports no numeric library: the
`--threads` cap must be set before numpy loads.
"""

from __future__ import annotations

import math
import numbers
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from typing import Literal

from .errors import ConfigError

STREAM_NAMES = ("word", "sentence", "relation")


def _fits(value, annotation) -> bool:
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin is Literal:
        return value in args
    if origin is tuple:  # tuple[X, ...]; JSON gives a list
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):  # an int subclass, but no setting is a bool
        return False
    if annotation is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, numbers.Integral if annotation is int else annotation)


def _describe(annotation) -> str:
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Literal:
        return "one of " + ", ".join(map(repr, args))
    if origin is tuple:
        return f"a list, each item {_describe(args[0])}"
    names = {int: "an integer", float: "a finite number", str: "a string", type(None): "null"}
    return " or ".join(map(_describe, args)) if args else names[annotation]  # X | None


def check_type(name: str, value, annotation) -> None:
    """Raise ConfigError unless `value` fits a field annotation.

    `int` takes any integral number but a bool; `float` takes any finite
    real number but a bool; `X | None` also takes None; `tuple[X, ...]`
    takes a list or tuple of X; `Literal[...]` takes one of its values.
    """
    if not _fits(value, annotation):
        raise ConfigError(f"{name} must be {_describe(annotation)}, got {value!r}")


def check_fields(obj) -> None:
    """Check every field of dataclass instance `obj` against its annotation."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        check_type(f.name, getattr(obj, f.name), hints[f.name])


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")


@dataclass
class SynthSpec:
    """Layout of the planted corpus.

    Vocabulary indices: [0, token_tropes) are reserved trigger tokens,
    the next 2*motif_tropes are entity-name tokens, the rest filler.
    """

    docs: int = 2000
    token_tropes: int = 4
    motif_tropes: int = 4
    vocab: int = 64
    d_w: int = 16
    d_s: int = 16
    trigger_prob: float = 0.4
    filler_sents: int = 2
    filler_sent_len: int = 4
    val_frac: float = 0.2

    def __post_init__(self):
        check_fields(self)
        if self.docs < 1:
            raise ConfigError("docs must be >= 1")
        if self.token_tropes < 0 or self.motif_tropes < 0:
            raise ConfigError("trope counts must be >= 0")
        if self.token_tropes + self.motif_tropes < 1:
            raise ConfigError("need at least one trope")
        reserved = self.token_tropes + 2 * self.motif_tropes
        if self.vocab < reserved + 4:
            raise ConfigError(
                f"vocab {self.vocab} too small for {reserved} reserved tokens "
                f"plus fillers"
            )
        if not 0.0 < self.trigger_prob < 1.0:
            raise ConfigError("trigger_prob must be in (0, 1)")
        if self.filler_sents < 1 or self.filler_sent_len < 1:
            raise ConfigError("filler layout values must be >= 1")
        if not 0.0 <= self.val_frac < 1.0:
            raise ConfigError("val_frac must be in [0, 1)")
        if self.d_w < 1 or self.d_s < 1:
            raise ConfigError("embedding dims must be >= 1")

    @property
    def num_tropes(self) -> int:
        return self.token_tropes + self.motif_tropes

    def trigger_token(self, trope: int) -> int:
        """Reserved vocab index of a token trope's trigger."""
        if not 0 <= trope < self.token_tropes:
            raise ConfigError(f"trope {trope} is not token-triggered")
        return trope

    def entity_tokens(self, motif: int) -> tuple[int, int]:
        """Vocab indices of a motif trope's entity-name pair."""
        if not 0 <= motif < self.motif_tropes:
            raise ConfigError(f"no motif trope {motif}")
        base = self.token_tropes + 2 * motif
        return base, base + 1

    def trope_names(self) -> list[str]:
        return [f"token_trope_{k}" for k in range(self.token_tropes)] + [
            f"motif_trope_{k}" for k in range(self.motif_tropes)
        ]


@dataclass
class ModelConfig:
    num_tropes: int
    d_w: int  # word feature dim
    d_s: int  # sentence feature dim
    d_f: int = 64  # trope embedding dim
    d_a: int = 64  # stream attention dim
    d_h: int = 64  # reasoner hidden dim
    reasoner_steps: int = 3
    reasoner_heads: int = 4
    relation_reasoner: Literal["msrrn", "rrn"] = "msrrn"
    streams: tuple[str, ...] = field(
        default=STREAM_NAMES, metadata={"help": "comma-separated subset of word,sentence,relation"})
    max_word_tokens: int = 4096

    def __post_init__(self):
        check_fields(self)
        self.streams = tuple(self.streams)
        for name, v in vars(self).items():  # every integer field counts something
            if isinstance(v, numbers.Integral) and v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        if not self.streams:
            raise ConfigError("at least one stream must be enabled")
        for s in self.streams:  # before the duplicate check, which hashes them
            if s not in STREAM_NAMES:
                raise ConfigError(f"unknown stream {s!r}; valid: {STREAM_NAMES}")
        if len(set(self.streams)) != len(self.streams):
            raise ConfigError(f"duplicate stream in {self.streams}")

    def to_dict(self) -> dict:
        return asdict(self)  # streams stays a tuple, which JSON writes as a list

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        try:
            return cls(**{**d, "streams": tuple(d["streams"])})
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad model config: {exc}") from exc


@dataclass
class GradcheckConfig:
    """Settings of the finite-difference audit (`mulcom gradcheck`)."""

    eps: float = field(default=1e-5, metadata={"help": "finite-difference step"})
    max_coords: int = field(
        default=8, metadata={"help": "coordinates probed per parameter tensor"})
    tolerance: float = field(default=1e-4, metadata={"help": "largest passing relative error"})

    def __post_init__(self):
        check_fields(self)
        if self.eps <= 0:
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        if self.max_coords < 1:
            raise ConfigError(f"max_coords must be >= 1, got {self.max_coords}")
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    pos_weight: float | None = field(  # None -> neg/pos of the split in [1, 20]
        default=None, metadata={"help": "positive-class loss multiplier (default: auto)"})
    threshold: float = 0.5
    early_stop_f1: float | None = field(  # percentage; needs val docs
        default=None, metadata={"help": "stop once val micro-F1 reaches this percentage"})

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.pos_weight is not None and self.pos_weight <= 0:
            raise ConfigError("pos_weight must be positive")
        check_threshold(self.threshold)
        if self.early_stop_f1 is not None and not 0.0 <= self.early_stop_f1 <= 100.0:
            raise ConfigError(
                f"early_stop_f1 must be a percentage in [0, 100], got {self.early_stop_f1}")
