"""Multi-label evaluation: F1 variants, average precision, random floor.

All headline numbers are percentages. Average precision of one trope
is kept as a fraction; map_score converts to a percentage. Tropes with
no gold positives are excluded from macro-F1 and mAP (their F1 and AP
are undefined) and listed in the report notes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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


def _trope_counts(preds: Array, labels: Array) -> tuple[list[int], list[int], list[int]]:
    """Per-trope (tp, fp, fn) of binary [N, T] arrays, as column sums."""
    hit, gold = preds == 1, labels == 1
    tp = (hit & gold).sum(axis=0)
    return tp.tolist(), (hit.sum(axis=0) - tp).tolist(), (gold.sum(axis=0) - tp).tolist()


def _mean_percent(values: list[float]) -> float:
    """The mean of fractions `values`, summed in order, as a percentage; 0 for none."""
    return 100.0 * (sum(values) / len(values)) if values else 0.0


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
    if mode not in ("micro", "macro"):
        raise ValidationError(f"unknown f1 mode {mode!r}")
    tp, fp, fn = _trope_counts(preds, labels)
    if mode == "micro":
        return 100.0 * _f1_from_counts(sum(tp), sum(fp), sum(fn))
    # macro: tropes with a gold positive (tp + fn > 0)
    return _mean_percent([_f1_from_counts(t, p, n) for t, p, n in zip(tp, fp, fn) if t + n])


def average_precision(scores: Array, labels: Array, trope: str = "trope") -> float:
    """AP as a fraction; ties rank in original doc order (stable).

    `trope` names the scores' trope in the error a non-finite score raises.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("average_precision expects matching 1-d arrays")
    _check_finite(scores[:, None], [trope])
    if not labels.any():
        raise ValidationError("average_precision: no positive labels")
    return _average_precision(scores, labels)


def _average_precision(scores: Array, labels: Array) -> float:
    """AP of checked, finite 1-d `scores` and binary `labels` with a positive."""
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_pos = np.cumsum(ranked)
    ks = np.arange(1, len(ranked) + 1)
    prec_at_hit = (cum_pos / ks)[ranked == 1]
    return float(prec_at_hit.sum() / int(labels.sum()))


def _trope_aps(scores: Array, labels: Array) -> list[float | None]:
    """AP of each trope (column) of checked [N, T] arrays; None for one with no positive."""
    return [
        _average_precision(scores[:, t], labels[:, t]) if labels[:, t].any() else None
        for t in range(labels.shape[1])
    ]


def map_score(scores: Array, labels: Array) -> float:
    """Mean AP (percentage) over tropes with at least one positive.

    Trope t is `trope_t` in the error a non-finite score raises.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValidationError("map_score expects matching [N, T] arrays")
    _check_finite(scores, [f"trope_{t}" for t in range(scores.shape[1])])
    return _mean_percent([ap for ap in _trope_aps(scores, labels) if ap is not None])


def random_baseline(
    labels: Array, seed: int = 0, trials: int = 100
) -> dict[str, float]:
    """Chance floor: Bernoulli(0.5) predictions and uniform scores.

    Returns trial means with half-width 1.96 * sem confidence intervals.
    """
    if trials < 1:
        raise ValidationError(f"random_baseline: trials must be at least 1, got {trials}")
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
        return asdict(self)


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
    tps, fps, fns = _trope_counts(preds, labels)
    aps = _trope_aps(scores, labels)
    per_trope: dict[str, dict] = {}
    notes: list[str] = []
    f1s: list[float] = []  # of the tropes with a gold positive
    for name, tp, fp, fn, ap in zip(trope_names, tps, fps, fns, aps):
        f1_t = _f1_from_counts(tp, fp, fn)
        if ap is None:
            notes.append(f"{name}: no gold positives, excluded from macro/mAP")
        else:
            f1s.append(f1_t)
        per_trope[name] = {
            "precision": 0.0 if tp + fp == 0 else 100.0 * (tp / (tp + fp)),
            "recall": 0.0 if tp + fn == 0 else 100.0 * (tp / (tp + fn)),
            "f1": 100.0 * f1_t,
            "ap": None if ap is None else 100.0 * ap,
            "support": tp + fn,
        }
    return EvalReport(
        micro_f1=100.0 * _f1_from_counts(sum(tps), sum(fps), sum(fns)),
        macro_f1=_mean_percent(f1s),
        mAP=_mean_percent([ap for ap in aps if ap is not None]),
        threshold=threshold,
        per_trope=per_trope,
        notes=notes,
    )
