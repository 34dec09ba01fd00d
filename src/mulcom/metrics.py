"""Multi-label evaluation: F1 variants, average precision, random floor.

All headline numbers are percentages. Average precision of one trope
is kept as a fraction; map_score converts to a percentage. Tropes with
no gold positives are excluded from macro-F1 and mAP (their F1 and AP
are undefined) and listed in the report notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_threshold
from .errors import ValidationError
from .numerics import rng_from_seed

Array = np.ndarray


def is_binary(a: Array) -> bool:
    """Whether every entry of array `a` is 0 or 1 (True and False count)."""
    return bool(((a == 0) | (a == 1)).all())


def _check_binary(a: Array, name: str) -> Array:
    a = np.asarray(a)
    if not is_binary(a):
        raise ValidationError(f"{name} must contain only 0 and 1")
    return a.astype(np.int64)


def _check_finite(scores: Array, tropes: list[str]) -> None:
    """Raise on the first NaN or infinite score of [N, T] `scores`, naming its trope."""
    bad = np.argwhere(~np.isfinite(scores))
    if bad.size:
        doc, t = bad[0]
        raise ValidationError(f"{tropes[t]}: score {scores[doc, t]} of doc {doc} is not finite")


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def f1(preds: Array, labels: Array, mode: str = "micro") -> float:
    """Multi-label F1 as a percentage over an [N, T] binary pair.

    micro pools every (doc, trope) decision; macro averages per-trope
    F1 over tropes that have at least one gold positive.
    """
    preds = _check_binary(preds, "preds")
    labels = _check_binary(labels, "labels")
    if preds.shape != labels.shape:
        raise ValidationError(
            f"preds shape {preds.shape} != labels shape {labels.shape}"
        )
    if preds.ndim != 2:
        raise ValidationError(f"f1 expects [N, T] arrays, got shape {preds.shape}")
    if mode == "micro":
        tp = int(((preds == 1) & (labels == 1)).sum())
        fp = int(((preds == 1) & (labels == 0)).sum())
        fn = int(((preds == 0) & (labels == 1)).sum())
        return 100.0 * _f1_from_counts(tp, fp, fn)
    if mode == "macro":
        vals = []
        for t in range(labels.shape[1]):
            if labels[:, t].sum() == 0:
                continue
            tp = int(((preds[:, t] == 1) & (labels[:, t] == 1)).sum())
            fp = int(((preds[:, t] == 1) & (labels[:, t] == 0)).sum())
            fn = int(((preds[:, t] == 0) & (labels[:, t] == 1)).sum())
            vals.append(_f1_from_counts(tp, fp, fn))
        return 100.0 * (sum(vals) / len(vals)) if vals else 0.0
    raise ValidationError(f"unknown f1 mode {mode!r}")


def average_precision(scores: Array, labels: Array, trope: str = "trope") -> float:
    """AP as a fraction; ties rank in original doc order (stable).

    `trope` names the scores' trope in the error a non-finite score raises.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("average_precision expects matching 1-d arrays")
    _check_finite(scores[:, None], [trope])
    npos = int(labels.sum())
    if npos == 0:
        raise ValidationError("average_precision: no positive labels")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_pos = np.cumsum(ranked)
    ks = np.arange(1, len(ranked) + 1)
    prec_at_hit = (cum_pos / ks)[ranked == 1]
    return float(prec_at_hit.sum() / npos)


def map_score(scores: Array, labels: Array) -> float:
    """Mean AP (percentage) over tropes with at least one positive.

    Trope t is `trope_t` in the error a non-finite score raises.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValidationError("map_score expects matching [N, T] arrays")
    _check_finite(scores, [f"trope_{t}" for t in range(scores.shape[1])])
    aps = [
        average_precision(scores[:, t], labels[:, t])
        for t in range(labels.shape[1])
        if labels[:, t].sum() > 0
    ]
    return 100.0 * (sum(aps) / len(aps)) if aps else 0.0


def random_baseline(
    labels: Array, seed: int = 0, trials: int = 100
) -> dict[str, float]:
    """Chance floor: Bernoulli(0.5) predictions and uniform scores.

    Returns trial means with half-width 1.96 * sem confidence intervals.
    """
    labels = _check_binary(labels, "labels")
    rng = rng_from_seed(seed, stream=90)
    f1s = np.empty(trials)
    maps = np.empty(trials)
    for i in range(trials):
        preds = (rng.random(labels.shape) < 0.5).astype(np.int64)
        scores = rng.random(labels.shape)
        f1s[i] = f1(preds, labels, mode="micro")
        maps[i] = map_score(scores, labels)
    def ci(a: Array) -> float:
        return float(1.96 * a.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return {
        "micro_f1": float(f1s.mean()),
        "micro_f1_ci": ci(f1s),
        "mAP": float(maps.mean()),
        "mAP_ci": ci(maps),
        "trials": float(trials),
    }


@dataclass
class EvalReport:
    micro_f1: float
    macro_f1: float
    mAP: float
    threshold: float
    per_trope: dict[str, dict]
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "mAP": self.mAP,
            "threshold": self.threshold,
            "per_trope": self.per_trope,
            "notes": list(self.notes),
        }


def evaluate(
    scores: Array,
    labels: Array,
    threshold: float = 0.5,
    trope_names: list[str] | None = None,
) -> EvalReport:
    """Binarize at `threshold` and assemble the full report.

    A NaN or infinite score raises a ValidationError naming its trope.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValidationError("evaluate expects matching [N, T] arrays")
    check_threshold(threshold)
    n_tropes = labels.shape[1]
    if trope_names is None:
        trope_names = [f"trope_{t}" for t in range(n_tropes)]
    if len(trope_names) != n_tropes:
        raise ValidationError(f"evaluate: {len(trope_names)} trope names for {n_tropes} tropes")
    _check_finite(scores, trope_names)
    preds = (scores >= threshold).astype(np.int64)
    per_trope: dict[str, dict] = {}
    notes: list[str] = []
    for t in range(n_tropes):
        support = int(labels[:, t].sum())
        tp = int(((preds[:, t] == 1) & (labels[:, t] == 1)).sum())
        fp = int(((preds[:, t] == 1) & (labels[:, t] == 0)).sum())
        fn = int(((preds[:, t] == 0) & (labels[:, t] == 1)).sum())
        prec = 0.0 if tp + fp == 0 else tp / (tp + fp)
        rec = 0.0 if tp + fn == 0 else tp / (tp + fn)
        ap = None
        if support > 0:
            ap = 100.0 * average_precision(scores[:, t], labels[:, t])
        else:
            notes.append(f"{trope_names[t]}: no gold positives, excluded from macro/mAP")
        per_trope[trope_names[t]] = {
            "precision": 100.0 * prec,
            "recall": 100.0 * rec,
            "f1": 100.0 * _f1_from_counts(tp, fp, fn),
            "ap": ap,
            "support": support,
        }
    return EvalReport(
        micro_f1=f1(preds, labels, mode="micro"),
        macro_f1=f1(preds, labels, mode="macro"),
        mAP=map_score(scores, labels),
        threshold=threshold,
        per_trope=per_trope,
        notes=notes,
    )
