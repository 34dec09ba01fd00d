"""Metrics checked against brute-force enumeration oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from mulcom.errors import ConfigError, ValidationError
from mulcom.metrics import (
    average_precision,
    evaluate,
    f1,
    map_score,
    random_baseline,
)
from mulcom.numerics import rng_from_seed


def f1_oracle(preds, labels, mode):
    """Literal per-cell confusion counting with explicit loops."""
    n, t = labels.shape

    def counts(ts):
        tp = fp = fn = 0
        for i in range(n):
            for j in ts:
                if preds[i, j] == 1 and labels[i, j] == 1:
                    tp += 1
                elif preds[i, j] == 1:
                    fp += 1
                elif labels[i, j] == 1:
                    fn += 1
        return tp, fp, fn

    def from_counts(tp, fp, fn):
        return 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)

    if mode == "micro":
        return 100.0 * from_counts(*counts(range(t)))
    vals = [
        from_counts(*counts([j]))
        for j in range(t)
        if sum(labels[i, j] for i in range(n)) > 0
    ]
    return 100.0 * (sum(vals) / len(vals)) if vals else 0.0


def ap_oracle(scores, labels):
    """Prefix-precision enumeration on the stable descending ranking."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    total = 0.0
    npos = sum(labels)
    for k in range(1, len(order) + 1):
        prefix = order[:k]
        if labels[order[k - 1]] == 1:
            total += sum(labels[i] for i in prefix) / k
    return total / npos


class TestF1:
    def test_perfect_predictions(self):
        labels = np.array([[1, 0], [0, 1], [1, 1]])
        assert f1(labels, labels, "micro") == 100.0
        assert f1(labels, labels, "macro") == 100.0

    def test_all_negative_with_positives_present(self):
        labels = np.array([[1, 0], [0, 1]])
        preds = np.zeros_like(labels)
        assert f1(preds, labels, "micro") == 0.0
        assert f1(preds, labels, "macro") == 0.0

    def test_hand_enumerated_case(self):
        # 4 docs, 3 tropes; trope 2 has no gold positives.
        labels = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]])
        preds = np.array([[1, 0, 1], [0, 1, 0], [0, 1, 0], [1, 0, 0]])
        # micro: tp=3, fp=2, fn=1 -> 2*3/(6+2+1)
        assert f1(preds, labels, "micro") == pytest.approx(200.0 / 3.0)
        # macro over tropes 0,1: t0 tp=1 fp=1 fn=1 -> 0.5; t1 tp=2 fp=0 fn=0 -> 1.0
        assert f1(preds, labels, "macro") == pytest.approx(75.0)

    def test_no_positive_tropes_excluded_from_macro(self):
        labels = np.array([[1, 0], [1, 0]])
        preds = np.array([[1, 1], [1, 1]])
        # trope 1 has no gold positives; macro covers trope 0 only
        assert f1(preds, labels, "macro") == 100.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            f1(np.array([[2]]), np.array([[1]]))

    @pytest.mark.parametrize("mode", ["micro", "macro"])
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_arrays_other_than_n_by_t_rejected(self, mode, shape):
        a = np.ones(shape, dtype=int)
        with pytest.raises(ValidationError, match=r"\[N, T\]"):
            f1(a, a, mode)

    @pytest.mark.parametrize("trial", range(20))
    def test_small_instances_match_oracle_exactly(self, trial):
        rng = rng_from_seed(500 + trial)
        n = int(rng.integers(1, 9))
        t = int(rng.integers(1, 4))
        labels = rng.integers(0, 2, size=(n, t))
        preds = rng.integers(0, 2, size=(n, t))
        for mode in ("micro", "macro"):
            assert f1(preds, labels, mode) == f1_oracle(preds, labels, mode)

    def test_permutation_invariance(self):
        rng = rng_from_seed(520)
        labels = rng.integers(0, 2, size=(10, 4))
        preds = rng.integers(0, 2, size=(10, 4))
        dperm = rng.permutation(10)
        tperm = rng.permutation(4)
        assert f1(preds, labels, "micro") == f1(preds[dperm], labels[dperm], "micro")
        assert f1(preds[:, tperm], labels[:, tperm], "micro") == f1(
            preds, labels, "micro"
        )


class TestAveragePrecision:
    def test_single_positive_first(self):
        assert average_precision(np.array([0.9, 0.2, 0.1]), np.array([1, 0, 0])) == 1.0

    def test_single_positive_last(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        labels = np.array([0, 0, 0, 1])
        assert average_precision(scores, labels) == pytest.approx(0.25)

    def test_six_item_mixed_ranking(self):
        scores = np.array([0.9, 0.1, 0.8, 0.4, 0.7, 0.2])
        labels = np.array([1, 0, 0, 1, 1, 0])
        got = average_precision(scores, labels)
        assert got == pytest.approx(ap_oracle(scores.tolist(), labels.tolist()))
        # ranking: d0(1), d2(0), d4(1), d3(1), d5(0), d1(0)
        expected = (1 / 1 + 2 / 3 + 3 / 4) / 3
        assert got == pytest.approx(expected)

    def test_stable_tie_breaking(self):
        scores = np.zeros(4)
        labels = np.array([0, 1, 0, 1])
        # tie order is doc order: positives land at ranks 2 and 4
        assert average_precision(scores, labels) == pytest.approx(
            (1 / 2 + 2 / 4) / 2
        )

    def test_no_positives_rejected(self):
        with pytest.raises(ValidationError):
            average_precision(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_swapping_positive_upward_never_decreases(self):
        rng = rng_from_seed(530)
        for _ in range(10):
            n = 8
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            scores = rng.random(n)
            base = average_precision(scores, labels)
            order = np.argsort(-scores, kind="stable")
            ranked = labels[order]
            ups = [r for r in range(1, n) if ranked[r] == 1 and ranked[r - 1] == 0]
            if not ups:
                continue
            r = ups[0]
            swapped = scores.copy()
            a, b = order[r - 1], order[r]
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert average_precision(swapped, labels) >= base

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_prefix_oracle(self, trial):
        rng = rng_from_seed(540 + trial)
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        scores = np.round(rng.random(n), 1)  # induce ties
        assert average_precision(scores, labels) == pytest.approx(
            ap_oracle(scores.tolist(), labels.tolist()), abs=1e-12
        )


class TestMapScore:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.9], [0.1, 0.2]])
        labels = np.array([[1, 0], [1, 1], [0, 0]])
        assert map_score(scores, labels) == 100.0

    def test_identical_scores_interleaved_positives(self):
        # Ties resolve in doc order; placing the j-th positive at rank
        # j*N/P makes every hit's precision P/N, so AP equals prevalence.
        scores = np.zeros((6, 1))
        labels = np.array([[0], [1], [0], [1], [0], [1]])
        assert map_score(scores, labels) == pytest.approx(50.0)

    def test_mean_of_two_tropes(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        labels = np.array([[1, 1], [0, 0]])
        # trope 0: positive ranked 1st -> AP 1.0; trope 1: ranked 2nd -> 0.5
        assert map_score(scores, labels) == pytest.approx(75.0)

    def test_no_positive_trope_skipped(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.4]])
        labels = np.array([[1, 0], [0, 0]])
        assert map_score(scores, labels) == 100.0


class TestRandomBaseline:
    def test_all_positive_labels(self):
        labels = np.ones((40, 5), dtype=int)
        out = random_baseline(labels, seed=1, trials=50)
        # precision 1.0, recall ~0.5 -> micro-F1 ~ 2/3
        assert abs(out["micro_f1"] - 66.7) < 3.0
        assert out["mAP"] == pytest.approx(100.0)

    def test_all_negative_labels(self):
        labels = np.zeros((10, 3), dtype=int)
        out = random_baseline(labels, seed=2, trials=10)
        assert out["micro_f1"] == 0.0
        assert out["mAP"] == 0.0

    def test_deterministic_given_seed(self):
        labels = np.eye(6, 3, dtype=int)
        a = random_baseline(labels, seed=3, trials=20)
        b = random_baseline(labels, seed=3, trials=20)
        assert a == b

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_a_validation_error(self, trials):
        # 0 gave NaN means with RuntimeWarnings, -3 numpy's negative-dimension error
        with pytest.raises(ValidationError, match="trials"):
            random_baseline(np.eye(4, 2, dtype=int), trials=trials)


class TestEvaluate:
    def test_report_fields_and_per_trope(self):
        scores = np.array([[0.9, 0.2, 0.4], [0.3, 0.8, 0.4], [0.6, 0.7, 0.1]])
        labels = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
        rep = evaluate(scores, labels, threshold=0.5, trope_names=["a", "b", "c"])
        assert set(rep.per_trope) == {"a", "b", "c"}
        assert rep.per_trope["a"]["support"] == 1
        assert rep.per_trope["c"]["ap"] is None
        assert any("c" in note for note in rep.notes)
        preds = (scores >= 0.5).astype(int)
        assert rep.micro_f1 == f1_oracle(preds, labels, "micro")
        assert rep.macro_f1 == f1_oracle(preds, labels, "macro")

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(np.zeros((1, 1)), np.zeros((1, 1), dtype=int), threshold=1.5)

    def test_values_within_percentage_range(self):
        rng = rng_from_seed(560)
        scores = rng.random((12, 4))
        labels = rng.integers(0, 2, size=(12, 4))
        rep = evaluate(scores, labels)
        for v in (rep.micro_f1, rep.macro_f1, rep.mAP):
            assert 0.0 <= v <= 100.0
        d = rep.to_dict()
        assert d["threshold"] == 0.5


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


MATRIX, OTHER = np.ones((2, 3)), np.ones((2, 2))


class TestShapeChecks:
    @pytest.mark.parametrize("call, error", [
        (lambda: f1(MATRIX, OTHER), r"preds shape \(2, 3\) != labels shape \(2, 2\)"),
        (lambda: f1(OTHER, OTHER, "weighted"), "unknown f1 mode 'weighted'"),
        (lambda: average_precision(np.ones(3), np.ones(2)), "expects matching 1-d arrays"),
        (lambda: average_precision(OTHER, OTHER), "expects matching 1-d arrays"),
        (lambda: map_score(MATRIX, OTHER), r"map_score expects matching \[N, T\]"),
        (lambda: map_score(np.ones(2), np.ones(2)), r"map_score expects matching \[N, T\]"),
        (lambda: evaluate(MATRIX, OTHER), r"evaluate expects matching \[N, T\]"),
        (lambda: evaluate(np.ones(2), np.ones(2)), r"evaluate expects matching \[N, T\]"),
    ], ids=["f1-shapes", "f1-mode", "ap-lengths", "ap-2d", "map-shapes", "map-1d",
            "evaluate-shapes", "evaluate-1d"])
    def test_arrays_of_the_wrong_shape_are_named(self, call, error):
        with pytest.raises(ValidationError, match=error):
            call()


class TestScoreValidation:
    # Before the check, the NaN case below reported trope_1 AP 100.0 and mAP 100.0.
    LABELS = np.array([[1, 0], [0, 1], [1, 1]])

    def _scores(self, bad):
        return np.array([[0.9, bad], [0.1, 0.8], [0.7, 0.2]])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_average_precision_names_the_trope(self, bad):
        with pytest.raises(ValidationError, match="trope_1.*doc 0"):
            average_precision(self._scores(bad)[:, 1], self.LABELS[:, 1], trope="trope_1")

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_map_score_names_the_trope(self, bad):
        with pytest.raises(ValidationError, match="trope_1.*doc 0"):
            map_score(self._scores(bad), self.LABELS)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_evaluate_names_the_trope(self, bad):
        with pytest.raises(ValidationError, match="trope_1.*doc 0"):
            evaluate(self._scores(bad), self.LABELS)
        with pytest.raises(ValidationError, match="villain.*doc 0"):
            evaluate(self._scores(bad), self.LABELS, trope_names=["hero", "villain"])

    def test_a_trope_without_positives_is_checked_too(self):
        scores = self._scores(0.5)
        scores[2, 0] = float("nan")
        labels = np.array([[0, 0], [0, 1], [0, 1]])  # trope_0 is left out of mAP
        with pytest.raises(ValidationError, match="trope_0.*doc 2"):
            evaluate(scores, labels)

    @pytest.mark.parametrize("names", [["hero"], ["hero", "villain", "mentor"]])
    def test_evaluate_needs_one_name_per_trope(self, names):
        # a short list used to end in a bare IndexError
        with pytest.raises(ValidationError, match=f"{len(names)} trope names for 2 tropes"):
            evaluate(self._scores(0.5), self.LABELS, trope_names=names)

    def test_finite_scores_still_score(self):
        # trope_0 ranks both positives first; trope_1 ranks them 1st and 3rd
        assert map_score(self._scores(0.5), self.LABELS) == pytest.approx(
            100.0 * (1.0 + (1.0 + 2.0 / 3.0) / 2.0) / 2.0)
