"""Frozen outputs of two small trained models, checked against today's code.

`fixtures/golden/` holds a planted corpus and two checkpoints trained
on it by the command line: an all-three-stream MSRRN model and an RRN
model. For each, `expected.json` records what the code computed when
the fixture was made: the val scores, the loss and every parameter
gradient on one training batch, and the metrics of `eval_report.json`.
A change to what the model computes fails here, even when it is made
to every path and oracle at once.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when
the outputs are meant to change, and say why in CHANGES.md.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from mulcom.cli import main as cli_main
from mulcom.data import load_dataset
from mulcom.graph import label_matrix
from mulcom.ioutil import atomic_write_text, canonical_json
from mulcom.model import bce_loss, forward_logits, load_checkpoint, score_dataset
from mulcom.numerics import Tape, backward

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden")
MANIFEST = os.path.join(GOLDEN, "data", "manifest.json")
TOL = 1e-12
SYNTH = ["--docs", "20", "--vocab", "24", "--d-w", "4", "--d-s", "4", "--seed", "11"]
TRAIN = ["--epochs", "3", "--seed", "4", "--d-f", "4", "--d-a", "4", "--d-h", "4"]
MODELS = {  # name: the model's own train flags
    "msrrn": ["--reasoner-steps", "2", "--reasoner-heads", "2"],
    "rrn": ["--relation-reasoner", "rrn", "--streams", "sentence,relation",
            "--reasoner-steps", "3", "--reasoner-heads", "1"],
}
GRAD_DOCS = 8  # the batch whose gradients are frozen: the first train docs
POS_WEIGHT = 2.0


def _outputs(name, eval_dir):
    """What the model stored under `name` computes, as `expected.json` holds it."""
    ckpt = os.path.join(GOLDEN, name, "checkpoint.json")
    ds = load_dataset(MANIFEST)
    model = load_checkpoint(ckpt)
    scores = score_dataset(model, ds.split("val"))
    batch = ds.split("train")[:GRAD_DOCS]
    params = model.named_parameters()
    with Tape() as tape:
        loss = bce_loss(forward_logits(model, batch), label_matrix(batch, ds.num_tropes),
                        pos_weight=POS_WEIGHT)
    backward(loss, tape)
    rc = cli_main(["eval", "--data", MANIFEST, "--checkpoint", ckpt, "--out", eval_dir,
                   "--split", "val"])
    assert rc == 0
    with open(os.path.join(eval_dir, "eval_report.json")) as fh:
        report = json.load(fh)["report"]
    return {
        "val_scores": scores.tolist(),
        "loss": float(loss.data),
        # None: off the tape, as the RRN's step attention is
        "grads": {k: None if t.grad is None else t.grad.reshape(-1).tolist()
                  for k, t in params.items()},
        "eval_report": report,
    }


def _expected(name):
    with open(os.path.join(GOLDEN, name, "expected.json")) as fh:
        return json.load(fh)


def _max_abs_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@pytest.mark.parametrize("name", list(MODELS))
def test_checkpoint_outputs_match_the_frozen_ones(name, tmp_path):
    want = _expected(name)
    got = _outputs(name, str(tmp_path))
    assert _max_abs_diff(got["val_scores"], want["val_scores"]) <= TOL
    assert abs(got["loss"] - want["loss"]) <= TOL
    assert got["grads"].keys() == want["grads"].keys()
    for param_name, g in want["grads"].items():
        if g is None:
            assert got["grads"][param_name] is None, param_name
            continue
        assert len(got["grads"][param_name]) == len(g), param_name
        assert _max_abs_diff(got["grads"][param_name], g) <= TOL, param_name
    assert got["eval_report"] == want["eval_report"]


def regenerate(scratch):
    """Synthesize the corpus, train both models and record their outputs."""
    assert cli_main(["synth", "--out", os.path.join(GOLDEN, "data"), *SYNTH]) == 0
    for name, flags in MODELS.items():
        out = os.path.join(GOLDEN, name)
        assert cli_main(["train", "--data", MANIFEST, "--out", out, *TRAIN, *flags]) == 0
        os.remove(os.path.join(out, "train_report.json"))  # its config holds the run's paths
        expected = _outputs(name, os.path.join(scratch, name))
        atomic_write_text(os.path.join(out, "expected.json"), canonical_json(expected) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
