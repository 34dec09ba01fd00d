"""Acceptance gate: the seven headline checks, one test per criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. The public-corpus reproduction check only runs when
TIMOS_MANIFEST points at that dataset's manifest file; everything else
is self-contained and CPU-cheap.
"""

import json
import math
import os
import shutil
import time

import numpy as np
import numpy.testing as npt
import pytest

from mulcom.cli import main as cli_main
from mulcom.data import (
    SynthSpec,
    cooccurrence_iou,
    corpus_stats,
    load_dataset,
    synth_generate,
    trope_prevalence,
)
from mulcom.gradcheck import run_gradcheck
from mulcom.graph import build_graph, label_matrix
from mulcom.metrics import average_precision, f1, map_score, random_baseline
from mulcom.model import (
    ModelConfig,
    TrainConfig,
    bce_loss,
    build_model,
    score_dataset,
    train,
)
from mulcom.msrrn import init_reasoner, run_msrrn, run_rrn
from mulcom.numerics import (
    Tape,
    Tensor,
    backward,
    param,
    rng_from_seed,
)

from composite_oracle import message_pass
from test_data import iou_oracle, stats_oracle
from test_graph import make_doc
from test_metrics import ap_oracle, f1_oracle
from test_msrrn import identity_mha


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    results = run_gradcheck(seed=0, eps=1e-5, max_coords=8)
    elapsed = time.perf_counter() - t0
    assert {r.name for r in results} == {
        "message_mlp", "lstm_cell", "multi_head_attention",
        "word_stream", "sentence_stream", "relation_stream",
        "stream_attention", "predictor", "full_model",
    }
    for r in results:
        assert r.max_err < 1e-4, (r.name, r.max_err)
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s"
    worst = max(r.max_err for r in results)
    print(f"criterion 1 PASS: 9 components, worst err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_reasoner_structural_invariants():
    # Node-permutation equivariance over 50 random graphs, n <= 8.
    worst = 0.0
    for trial in range(50):
        rng = rng_from_seed(700 + trial)
        n = int(rng.integers(2, 9))
        n_sents = int(rng.integers(1, 6))
        table = {
            f"e{i}": sorted(
                set(rng.integers(0, n_sents, size=rng.integers(0, 4)).tolist())
            )
            for i in range(n)
        }
        doc = make_doc(table, n_sents=n_sents, d_s=5, seed=800 + trial)
        g = build_graph(doc)
        p = init_reasoner(rng, d_s=5, d_h=8,
                          steps=int(rng.integers(1, 4)), heads=2)
        perm = rng.permutation(n).tolist()
        doc2 = make_doc({f"e{k}": table[f"e{k}"] for k in perm},
                        n_sents=n_sents, d_s=5, seed=800 + trial)
        g2 = build_graph(doc2)
        new_of_old = {old: new for new, old in enumerate(perm)}
        for run in (run_msrrn, run_rrn):
            out1 = run(g, p).data
            out2 = run(g2, p).data
            remapped = np.zeros_like(out1)
            for old in range(n):
                remapped[new_of_old[old]] = out1[old]
            diff = float(np.abs(out2 - remapped).max())
            worst = max(worst, diff)
            assert diff < 1e-10

    # One step with pass-through step attention is the plain recurrent
    # variant, bit for bit.
    rng = rng_from_seed(750)
    doc = make_doc({"a": [0, 1], "b": [1], "c": [2]}, n_sents=3, d_s=5, seed=751)
    g = build_graph(doc)
    p = init_reasoner(rng, d_s=5, d_h=8, steps=1, heads=2)
    p.step_attention = identity_mha(8, 2)
    npt.assert_array_equal(run_msrrn(g, p).data, run_rrn(g, p).data)

    # A node with no incident pairs receives an exactly zero message row.
    doc = make_doc({"a": [0], "b": [0], "iso": []}, n_sents=1, d_s=5, seed=752)
    g = build_graph(doc)
    iso = [ent.entity_id for ent in doc.entities].index("iso")
    p = init_reasoner(rng, d_s=5, d_h=8, steps=1, heads=2)
    h = Tensor(rng_from_seed(753).standard_normal((g.n_nodes, 8)))
    msg = message_pass(g, h, p).data
    npt.assert_array_equal(msg[iso], np.zeros(8))
    print(f"criterion 2 PASS: equivariance worst {worst:.2e} over 50 graphs")


def test_criterion_3_metric_oracle_equivalence():
    checked = 0
    for trial in range(150):
        rng = rng_from_seed(900 + trial)
        n = int(rng.integers(1, 9))
        t = int(rng.integers(1, 4))
        preds = (rng.random((n, t)) < 0.5).astype(np.int64)
        labels = (rng.random((n, t)) < 0.5).astype(np.int64)
        for mode in ("micro", "macro"):
            assert f1(preds, labels, mode=mode) == f1_oracle(preds, labels, mode)

        m = int(rng.integers(1, 7))
        scores = rng.integers(0, 4, size=m) / 3.0  # grid forces ties
        gold = (rng.random(m) < 0.5).astype(np.int64)
        if gold.sum() > 0:
            assert abs(average_precision(scores, gold) - ap_oracle(scores, gold)) <= 1e-12
        col_scores = rng.integers(0, 4, size=(n, t)) / 3.0
        aps = [ap_oracle(col_scores[:, j], labels[:, j])
               for j in range(t) if labels[:, j].sum() > 0]
        if aps:
            want = 100.0 * (sum(aps) / len(aps))
            assert abs(map_score(col_scores, labels) - want) <= 1e-12

        docs = [
            make_doc(
                {"a": [0]}, n_sents=1, seed=1000 + trial * 10 + i,
                labels=tuple(np.flatnonzero(rng.random(t) < 0.5)),
            )
            for i in range(n)
        ]
        got = {(a, b): v for a, b, v in cooccurrence_iou(docs, t)}
        want_iou = iou_oracle(docs, t)
        for (a, b), v in got.items():
            assert v == want_iou[(a, b)]

        from mulcom.data import Dataset
        ds = Dataset(trope_names=[f"t{i}" for i in range(t)],
                     splits={"train": docs})
        got_stats = corpus_stats(ds)["train"]
        want_stats = stats_oracle(docs)
        for fieldname, stats in want_stats.items():
            for key, val in stats.items():
                assert got_stats[fieldname][key] == pytest.approx(val, abs=1e-12)
        checked += 1
    print(f"criterion 3 PASS: {checked} random instances match oracles")


def test_criterion_4_planted_data_learnability():
    t0 = time.perf_counter()
    ds = synth_generate(4, SynthSpec())
    train_docs, val_docs = ds.split("train"), ds.split("val")
    assert len(train_docs) + len(val_docs) == 2000
    assert ds.num_tropes == 8
    y_val = label_matrix(val_docs, 8)

    def fit(streams, epochs, early_stop):
        cfg = ModelConfig(num_tropes=8, d_w=16, d_s=16, d_f=32, d_a=32,
                          d_h=32, reasoner_steps=2, reasoner_heads=4,
                          streams=streams)
        model = build_model(cfg, seed=4)
        tcfg = TrainConfig(learning_rate=3e-3, epochs=epochs, batch_size=16,
                           seed=4, early_stop_f1=early_stop)
        result = train(model, train_docs, tcfg, val_docs=val_docs)
        preds = (score_dataset(model, val_docs) >= 0.5).astype(np.int64)
        return result, preds

    res, preds = fit(("word", "relation"), epochs=30, early_stop=90.0)
    full = f1(preds, y_val, mode="micro")
    assert res.epochs_run <= 30
    assert full >= 90.0, f"word+relation val micro-F1 {full:.2f}"

    _, preds_w = fit(("word",), epochs=10, early_stop=None)
    token = f1(preds_w[:, :4], y_val[:, :4], mode="micro")
    motif = f1(preds_w[:, 4:], y_val[:, 4:], mode="micro")
    assert token >= 90.0, f"word-only token-trope micro-F1 {token:.2f}"
    assert motif <= 65.0, f"word-only motif-trope micro-F1 {motif:.2f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"learnability check took {elapsed:.0f}s"
    print(
        f"criterion 4 PASS: word+relation {full:.2f} in {res.epochs_run} epochs; "
        f"word-only token {token:.2f} / motif {motif:.2f}; {elapsed:.0f}s"
    )


def test_criterion_5_loss_analytics():
    loss = bce_loss(Tensor(np.zeros(1)), np.ones(1), pos_weight=1.0)
    assert abs(float(loss.data) - math.log(2.0)) <= 1e-12

    rng = rng_from_seed(55)
    for x_val in (-3.0, -0.5, 0.0, 1.25, 4.0):
        for y_val in (0.0, 1.0):
            x = param(np.array([x_val]))
            tape = Tape()
            with tape:
                loss = bce_loss(x, np.array([y_val]), pos_weight=1.0)
            backward(loss, tape)
            sig = 1.0 / (1.0 + math.exp(-x_val))
            assert abs(float(x.grad[0]) - (sig - y_val)) <= 1e-12

    # Mean reduction over N elements scales each contribution by 1/N.
    x = param(rng.standard_normal(6))
    y = (rng.random(6) < 0.5).astype(np.float64)
    tape = Tape()
    with tape:
        loss = bce_loss(x, y, pos_weight=1.0)
    backward(loss, tape)
    want = (1.0 / (1.0 + np.exp(-x.data)) - y) / 6.0
    npt.assert_allclose(x.grad, want, atol=1e-12)
    print("criterion 5 PASS: ln 2 anchor and sigmoid-minus-target gradient")


EXPECTED_TOP_PAIRS = [
    ("Disney Villain Death", "The Dragon"),
    ("Comically Missing the Point", "Hypocritical Humor"),
    ("Impaled with Extreme Prejudice", "Off with His Head!"),
    ("The Reveal", "Red Herring"),
    ("Hypocritical Humor", "Stealth Pun"),
    ("Badass Boast", "Curb-Stomp Battle"),
    ("Eye Scream", "Off with His Head!"),
    ("Would Hurt a Child", "Papa Wolf"),
]

TIMOS_MANIFEST = os.environ.get("TIMOS_MANIFEST", "")


@pytest.mark.skipif(
    not TIMOS_MANIFEST,
    reason="public trope corpus not mounted; set TIMOS_MANIFEST to run",
)
def test_criterion_6_public_corpus_reproduction():
    ds = load_dataset(TIMOS_MANIFEST)
    sizes = {name: len(docs) for name, docs in ds.splits.items()}
    assert sizes.get("train") == 4059
    assert sizes.get("val") == 715
    assert sizes.get("test") == 849

    train_docs = ds.split("train")
    stats = corpus_stats(ds)["train"]
    assert stats["tropes"]["median"] == 8.0

    prev = trope_prevalence(train_docs, ds.num_tropes)
    ordered = sorted(prev)
    mid = len(ordered) // 2
    median = (
        ordered[mid] if len(ordered) % 2
        else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    assert abs(median - 6.60) < 0.005
    assert abs(max(prev) - 32.10) < 0.005

    rb = random_baseline(label_matrix(train_docs, ds.num_tropes), seed=0)
    assert abs(rb["micro_f1"] - 13.97) <= 1.5
    assert abs(rb["mAP"] - 8.14) <= 1.5

    top15 = cooccurrence_iou(train_docs, ds.num_tropes)[:15]
    top_names = {
        frozenset((ds.trope_names[a], ds.trope_names[b])) for a, b, _ in top15
    }
    for pair in EXPECTED_TOP_PAIRS:
        assert frozenset(pair) in top_names, f"{pair} missing from top-15"
    print("criterion 6 PASS: splits, medians, chance floor, top pairs")


def test_criterion_7_byte_identical_artifacts(tmp_path):
    data_dir = tmp_path / "ds"
    rc = cli_main([
        "synth", "--out", str(data_dir), "--docs", "30", "--vocab", "24",
        "--d-w", "6", "--d-s", "5", "--seed", "5",
    ])
    assert rc == 0
    manifest = str(data_dir / "manifest.json")
    out = tmp_path / "run"

    def one_round():
        rc = cli_main([
            "train", "--data", manifest, "--out", str(out),
            "--epochs", "2", "--seed", "3", "--streams", "word,relation",
            "--d-f", "8", "--d-a", "8", "--d-h", "8",
            "--reasoner-steps", "2", "--reasoner-heads", "2",
        ])
        assert rc == 0
        rc = cli_main([
            "eval", "--data", manifest,
            "--checkpoint", str(out / "checkpoint.json"),
            "--out", str(out), "--split", "val", "--seed", "3",
        ])
        assert rc == 0

    one_round()
    stash = tmp_path / "stash"
    shutil.copytree(out, stash)
    one_round()
    for fname in ("checkpoint.json", "train_report.json", "eval_report.json"):
        a = (out / fname).read_bytes()
        b = (stash / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    report = json.loads((out / "eval_report.json").read_text())
    assert report["seed"] == 3
    assert "config" in report and "model_config" in report
    print("criterion 7 PASS: checkpoint and reports byte-identical")
