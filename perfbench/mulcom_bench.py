"""The mulcom benchmark: set-up, training and scoring on planted corpora.

One run handles one workload in one process with numeric threads capped
at 1 (see ``run.py``, the entry point). The workload seed generates a
planted JSONL corpus outside every timed region; the program then sees
only those files. A run has three phases:

- setup: ``load_dataset`` and ``build_model``, which is what
  ``mulcom train`` pays before ``train`` starts;
- train: a round is one ``mulcom.model.train`` epoch from the same
  initial model, so every round repeats the same optimizer steps (the
  write path, including the entity graphs ``train`` builds);
- eval: a round is one ``score_dataset`` call over the whole val split
  and one per val doc, then ``evaluate`` (the read path, no tape; graphs
  are built per doc, as ``mulcom eval`` does).

After three setups, seven rounds of (setup, train, eval) run, then more
while they fit in ``--seconds`` of wall time. Times are the CPU time of the
benchmark's thread, scaled to a nominal host speed by the speed sampled
while each round ran (``host_speed.py``).

The quality guards (train loss, val micro-F1 and mAP) come from a probe
trained on a corpus of a fixed seed, so unchanged arithmetic gives the
same values on every run whatever the workload seed; a change in them
means the computation changed. Corpus generation and the probe run in a
child interpreter, so their memory stays out of ``peak_rss_mb``.

A traced run (``--trace 1``) measures one untraced round of each phase,
then the same rounds with the layers wrapped (see ``layer_trace.py``),
and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field, replace

import numpy as np

import mulcom
import mulcom.data
import mulcom.metrics
import mulcom.model as M
from mulcom.cli import THREAD_ENV_VARS
from mulcom.data import Dataset, SynthSpec, save_dataset, synth_generate
from mulcom.errors import MulComError
from mulcom.graph import label_matrix
from mulcom.model import ModelConfig, TrainConfig

from host_speed import HostSpeed, clock
from layer_trace import STEP, Tracer, patched

# Later performance claims must also hold on this seed, which no change
# may be tuned on.
HELD_OUT_SEED = 20211

SETUP_REPS = 3  # before the first round; then one more in every round
MIN_ROUNDS = 7  # 105 train steps, so their p90 has ten samples beyond it
ORACLE_TOL = 1e-12  # single-doc scores vs whole-split scores
TRACEMALLOC_DOCS = 32  # train and val docs in the tracemalloc pass
MIN_SPAN_COVERAGE = 0.95
PROBE_SEED = 0  # quality-guard corpus and model seed, the CLI default
PROBE = dict(train_docs=160, val_docs=160, epochs=2)
LEARNING_RATE = 3e-3  # every workload; default-3s keeps the CLI model, not its lr
BATCH_SIZE = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark input; README.md says why each was chosen."""

    name: str
    spec: dict = field(default_factory=dict)  # SynthSpec overrides
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    train_docs: int = 240
    val_docs: int = 160
    epochs: int = 1  # per train round: 15 steps of 16 docs


D32 = dict(d_f=32, d_a=32, d_h=32)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-wr",
            model=dict(streams=("word", "relation"), reasoner_steps=2,
                       reasoner_heads=4, **D32),
        ),
        Workload("default-3s"),
        Workload(
            "long-synopsis",
            spec=dict(filler_sents=16, filler_sent_len=12, motif_tropes=2),
            model=dict(streams=("word", "sentence"), **D32),
        ),
    )
}


@dataclass
class Setup:
    train_docs: list
    val_docs: list
    val_labels: np.ndarray
    cfg: ModelConfig


@dataclass
class Tally:
    """Operations (train steps and eval docs) attempted and failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


def planted(w: Workload, seed: int) -> Dataset:
    total = w.train_docs + w.val_docs
    ds = synth_generate(seed, SynthSpec(docs=total, val_frac=w.val_docs / total, **w.spec))
    sizes = (len(ds.split("train")), len(ds.split("val")))
    if sizes != (w.train_docs, w.val_docs):
        raise MulComError(f"{w.name}: planted split sizes {sizes}")
    return ds


def model_config(w: Workload, ds: Dataset) -> ModelConfig:
    doc = ds.split("train")[0]
    return ModelConfig(num_tropes=ds.num_tropes, d_w=doc.word_feats.shape[1],
                       d_s=doc.sent_feats.shape[1], **w.model)


def train_config(w: Workload, seed: int) -> TrainConfig:
    return TrainConfig(learning_rate=LEARNING_RATE, epochs=w.epochs,
                       batch_size=BATCH_SIZE, seed=seed)


def make_corpus(w: Workload, seed: int, out_dir: str) -> str:
    """Planted corpus for (workload, seed) on disk; returns the manifest path."""
    return save_dataset(planted(w, seed), out_dir)


def prepare(w: Workload, seed: int, out_dir: str, probe: bool) -> tuple[str, dict | None]:
    """The workload corpus's manifest path, and the quality probe's metrics if asked."""
    return make_corpus(w, seed, out_dir), quality_probe(w) if probe else None


def prepare_in_child(w: Workload, seed: int, out_dir: str, probe: bool):
    """`prepare` in a child interpreter, so its memory stays out of ``peak_rss_mb``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulcom.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, here))}
    code = ("import json, sys, mulcom_bench as B; w, *args = json.loads(sys.argv[1]); "
            "print(json.dumps(B.prepare(B.Workload(**w), *args)))")
    args = json.dumps([asdict(w), seed, out_dir, probe])
    child = subprocess.run([sys.executable, "-c", code, args], env=env,
                           capture_output=True, text=True)
    if child.returncode != 0:
        raise MulComError(f"corpus preparation failed:\n{child.stderr[-2000:]}")
    return json.loads(child.stdout.splitlines()[-1])


def quality_probe(w: Workload) -> dict:
    """Train, score and evaluate on the fixed-seed probe corpus."""
    pw = replace(w, **PROBE)
    ds = planted(pw, PROBE_SEED)
    train_docs, val_docs = ds.split("train"), ds.split("val")
    model = M.build_model(model_config(pw, ds), seed=PROBE_SEED)
    result = M.train(model, train_docs, train_config(pw, PROBE_SEED))
    scores = M.score_dataset(model, val_docs)
    report = mulcom.metrics.evaluate(scores, label_matrix(val_docs, ds.num_tropes))
    return {"train_loss": float(np.mean(result.epoch_losses)),
            "val_micro_f1": report.micro_f1, "val_map": report.mAP}


def setup(w: Workload, manifest: str, seed: int) -> tuple[Setup, M.MulComModel]:
    ds = mulcom.data.load_dataset(manifest)
    train_docs, val_docs = ds.split("train"), ds.split("val")
    cfg = model_config(w, ds)
    model = M.build_model(cfg, seed=seed)
    labels = label_matrix(val_docs, ds.num_tropes)
    return Setup(train_docs, val_docs, labels, cfg), model


def collect(tracer: Tracer) -> None:
    """Free the previous round's garbage before the next timed region."""
    with tracer.span("gc"):
        gc.collect()


def timed_setups(tracer: Tracer, w: Workload, manifest: str, seed: int, reps: int) -> Setup:
    for _ in range(reps):
        collect(tracer)
        with tracer.span("setup"):
            s, _ = setup(w, manifest, seed)
    return s


def train_round(tracer: Tracer, w: Workload, s: Setup, seed: int, tally: Tally):
    """Train a fresh model; returns (model, epoch losses) or None on failure."""
    collect(tracer)
    steps_before = len(tracer.durations(STEP))
    model = M.build_model(s.cfg, seed=seed)
    try:
        with tracer.span("train"):
            result = M.train(model, s.train_docs, train_config(w, seed))
    except MulComError as exc:
        tally.attempted += len(tracer.durations(STEP)) - steps_before
        tally.fail(f"train: {exc}")
        return None
    steps = len(tracer.durations(STEP)) - steps_before
    tally.attempted += steps
    losses = result.epoch_losses
    if len(losses) != w.epochs or not np.isfinite(losses).all():
        tally.fail(f"train: bad epoch losses {losses}", steps)
    return model, losses


def eval_round(tracer: Tracer, model, s: Setup, tally: Tally):
    """Score the val split whole, then doc by doc, then evaluate; returns the scores."""
    collect(tracer)
    with tracer.span("eval"):
        with tracer.span("eval.split"):
            scores = M.score_dataset(model, s.val_docs)
        singles = []
        with tracer.span("eval.docs"):
            for doc in s.val_docs:
                with tracer.span("eval.doc"):
                    singles.append(M.score_dataset(model, [doc]))
        check_scores(scores, singles, s.cfg.num_tropes, tally)
        mulcom.metrics.evaluate(scores, s.val_labels)
    return scores


def check_scores(scores, singles, num_tropes: int, tally: Tally) -> None:
    """Shape, range and the single-doc oracle; one failed operation per bad doc."""
    n = len(singles)
    tally.attempted += n
    if scores.shape != (n, num_tropes):
        tally.fail(f"eval: scores shape {scores.shape}", n)
        return
    for i, single in enumerate(singles):
        row = scores[i]
        if not (np.isfinite(row).all() and (row >= 0).all() and (row <= 1).all()):
            tally.fail(f"eval: doc {i} scores outside [0, 1]")
        elif single.shape != (1, row.size) or np.abs(single[0] - row).max() > ORACLE_TOL:
            tally.fail(f"eval: doc {i} single-doc scores differ from the split scores")


def repeat(budget_s: float, min_runs: int, body) -> None:
    """Run `body` `min_runs` times, then again while another run fits the budget.

    The budget is wall time, so a run ends on time however slow the host.
    """
    start = time.perf_counter()
    for runs in itertools.count(1):
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        if runs >= min_runs and time.perf_counter() - start + last > budget_s:
            return


def same_params(a, b) -> bool:
    pa, pb = a.named_parameters(), b.named_parameters()
    return pa.keys() == pb.keys() and all(
        np.array_equal(pa[k].data, pb[k].data) for k in pa
    )


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(tracer: Tracer, w: Workload, seed: int, seconds: float, manifest: str,
                 tally: Tally, quality: dict):
    """Set up, then repeat (setup, train, eval) rounds for `seconds`.

    Returns (metrics, extras): the end-to-end metrics at the nominal host
    speed, and the sample counts and the same timings unscaled.

    Every round repeats the same set-up, steps and scores. The host's
    speed is sampled throughout, and each span is scaled by the samples
    taken while it ran. A single-doc call is too short to hold samples,
    so it takes those of its round's pass of single-doc calls, and since
    that scale is a mean over the pass, it is applied to each doc's mean
    time over the rounds; the doc percentiles are over those means.
    """
    first: dict = {}

    def one_round():
        timed_setups(tracer, w, manifest, seed, 1)
        out = train_round(tracer, w, s, seed, tally)
        if out is None:
            return
        if not first:
            first["model"], first["losses"] = out
        elif out[1] != first["losses"] or not same_params(out[0], first["model"]):
            tally.fail("train: a repeated round gave different results")
        scores = eval_round(tracer, first["model"], s, tally)
        if "scores" not in first:
            first["scores"] = scores
        elif not np.array_equal(scores, first["scores"]):
            tally.fail("eval: a repeated round gave different scores")

    speed = HostSpeed()
    with patched(tracer.step_clock()), speed.sampling():
        s = timed_setups(tracer, w, manifest, seed, SETUP_REPS)
        repeat(seconds, MIN_ROUNDS, one_round)

    def durations(name: str, scaled: bool) -> np.ndarray:
        out = []
        for n, start, end, parent in tracer.spans:
            if n == name:
                lo, hi = (tracer.spans[parent][1:3] if n == "eval.doc" else (start, end))
                out.append((end - start) * (speed.scale(lo, hi) if scaled else 1.0))
        return np.array(out)

    def timings(scaled: bool) -> dict:
        rounds, splits = durations("train", scaled), durations("eval.split", scaled)
        steps_ms = 1e3 * durations(STEP, scaled)
        docs_ms = 1e3 * durations("eval.doc", scaled).reshape(len(rounds), -1).mean(axis=0)
        return {
            "train_docs_per_s": (w.train_docs * w.epochs / np.median(rounds), "docs/s"),
            "train_step_ms_p50": (float(np.median(steps_ms)), "ms"),
            "train_step_ms_p90": (float(np.percentile(steps_ms, 90)), "ms"),
            "eval_docs_per_s": (w.val_docs / np.median(splits), "docs/s"),
            "eval_doc_ms_p50": (float(np.median(docs_ms)), "ms"),
            "eval_doc_ms_p90": (float(np.percentile(docs_ms, 90)), "ms"),
            "setup_s": (float(np.median(durations("setup", scaled))), "s"),
        }

    rounds = len(durations("train", False))
    if (not first or len(durations(STEP, False)) % rounds
            or len(durations("eval.doc", False)) != rounds * w.val_docs):
        return {}, {}
    metrics = {
        **timings(scaled=True),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_loss": (quality["train_loss"], "nats"),
        "val_micro_f1": (quality["val_micro_f1"], "%"),
        "val_map": (quality["val_map"], "%"),
    }
    extras = {
        "setups": len(durations("setup", False)),
        "train_rounds": len(durations("train", False)),
        "train_steps": len(durations(STEP, False)),
        "eval_splits": len(durations("eval.split", False)),
        "eval_docs": len(durations("eval.doc", False)),
        "host_speed_samples": len(speed.kernel_s),
        "host_speed_scales": (durations("train", True) / durations("train", False)).tolist(),
        "unscaled": {k: v for k, (v, _) in timings(scaled=False).items()},
    }
    return metrics, extras


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

STREAM_SPANS = tuple(f"streams.{name}" for name in M.STREAM_NAMES)
HEAD_SPANS = ("model.head.stream_attention", "model.head.organize",
              "model.head.predict_logits")
MSRRN_CHILDREN = ("message_mlp", "cell", "step_attention", "gather_scatter")


def run_traced(tracer: Tracer, start: float, w: Workload, seed: int, manifest: str,
               work_dir: str, tally: Tally) -> dict:
    """Per-layer metrics; `start` is when the run began, for the span coverage."""
    with patched(tracer.step_clock()):
        with patched(tracer.layer_wrappers()):
            s = timed_setups(tracer, w, manifest, seed, SETUP_REPS)

        base_lo = len(tracer.spans)
        base = train_round(tracer, w, s, seed, tally)
        if base is None:
            return {}
        eval_round(tracer, base[0], s, tally)
        base_hi = len(tracer.spans)

        with patched(tracer.layer_wrappers()):
            train_lo = len(tracer.spans)
            calls_before = tracer.calls.copy()
            traced = train_round(tracer, w, s, seed, tally)
            train_hi = len(tracer.spans)
            if traced is None:
                return {}
            calls = tracer.calls - calls_before
            eval_round(tracer, traced[0], s, tally)
            eval_hi = len(tracer.spans)
            with tracer.span("checkpoint"):
                path = os.path.join(work_dir, "checkpoint.json")
                M.save_checkpoint(traced[0], path)
                loaded = M.load_checkpoint(path)
    if traced[1] != base[1] or not same_params(traced[0], base[0]):
        tally.fail("trace: the traced round trained differently from the untraced one")
    if not same_params(loaded, traced[0]):
        tally.fail("checkpoint: loaded parameters differ from the saved model")

    with tracer.span("tracemalloc"):
        peak_mb = tracemalloc_peak_mb(w, manifest, seed)
    coverage = span_coverage(tracer, start)

    setup_agg = tracer.summary(0, base_lo)
    tr = tracer.summary(train_lo, train_hi)
    ev = tracer.summary(train_hi, eval_hi)
    graphs = tracer.summary(train_lo, eval_hi)["graph.build_graph"]
    everything = tracer.summary(0, len(tracer.spans))
    records, bwd_s = tracer.charged(train_lo, train_hi)
    docs = tr["model.forward"]["calls"]
    steps = tr[STEP]["calls"]
    step_s = tr[STEP]["incl_s"]
    total_records = sum(tracer.records.values())

    def per_doc_ms(name):
        return 1e3 * tr[name]["self_s"] / docs

    out = {
        "numerics.tape_records_per_doc": (records["model.forward"] / docs, "count"),
        "numerics.elems_per_record": (tracer.record_elems / total_records, "count"),
        "numerics.backward_ms_per_step": (1e3 * tr["numerics.backward"]["incl_s"] / steps, "ms"),
        "numerics.backward_share": (tr["numerics.backward"]["incl_s"] / step_s, "ratio"),
        "numerics.tracemalloc_peak_mb": (peak_mb, "MB"),
        "graph.build_graph_ms_per_doc": (
            1e3 * graphs["incl_s"] / max(1, graphs["calls"]), "ms"),
        "graph.directed_pairs_calls_per_doc": (tr["graph.directed_pairs"]["calls"] / docs, "count"),
        "graph.directed_pairs_ms_per_step": (1e3 * tr["graph.directed_pairs"]["self_s"] / steps, "ms"),
        "data.load_dataset_s": (setup_agg["data.load_dataset"]["incl_s"] / SETUP_REPS, "s"),
        "data.load_dataset_mb_per_s": (
            corpus_bytes(manifest) * SETUP_REPS / 1e6 / setup_agg["data.load_dataset"]["incl_s"],
            "MB/s"),
    }
    for span in STREAM_SPANS:
        out[f"{span}.fwd_ms_per_doc"] = (per_doc_ms(span), "ms")
        out[f"{span}.bwd_ms_per_step"] = (1e3 * bwd_s[span] / steps, "ms")
        out[f"{span}.records_per_doc"] = (records[span] / docs, "count")
    out["streams.attend.fwd_ms_per_doc"] = (per_doc_ms("streams.attend"), "ms")
    out["streams.sentence.lstm_calls_per_doc"] = (
        calls["streams.sentence.lstm_cell"] / docs, "count")
    out["msrrn.run.fwd_ms_per_doc"] = (per_doc_ms("msrrn.run"), "ms")
    for child in MSRRN_CHILDREN:
        out[f"msrrn.{child}.fwd_ms_per_doc"] = (per_doc_ms(f"msrrn.{child}"), "ms")
    out["msrrn.records_per_doc"] = (records["msrrn.run"] / docs, "count")
    out["msrrn.bwd_ms_per_step"] = (1e3 * bwd_s["msrrn.run"] / steps, "ms")
    out["model.forward_ms_per_doc"] = (1e3 * tr["model.forward"]["incl_s"] / docs, "ms")
    out["model.head.fwd_ms_per_doc"] = (sum(per_doc_ms(h) for h in HEAD_SPANS), "ms")
    out["model.head.records_per_doc"] = (sum(records[h] for h in HEAD_SPANS) / docs, "count")
    out["model.bce_ms_per_step"] = (1e3 * tr["model.bce"]["incl_s"] / steps, "ms")
    out["model.adam_ms_per_step"] = (1e3 * tr["model.adam"]["incl_s"] / steps, "ms")
    out["model.checkpoint_save_s"] = (everything["model.checkpoint_save"]["incl_s"], "s")
    out["model.checkpoint_load_s"] = (everything["model.checkpoint_load"]["incl_s"], "s")
    out["metrics.evaluate_ms"] = (1e3 * ev["metrics.evaluate"]["incl_s"], "ms")

    untraced_s = sum(sum(tracer.durations(n, base_lo, base_hi)) for n in ("train", "eval"))
    traced_s = sum(sum(tracer.durations(n, train_lo, eval_hi)) for n in ("train", "eval"))
    out["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    out["trace_span_coverage"] = (coverage, "ratio")

    # Consistency: the streams and the head own every record of a forward.
    parts = sum(records[f"streams.{n}"] for n in s.cfg.streams)
    parts += sum(records[h] for h in HEAD_SPANS)
    if parts != records["model.forward"]:
        tally.fail(f"trace: stream and head records sum to {parts}, "
                   f"forward has {records['model.forward']}")
    if coverage < MIN_SPAN_COVERAGE:
        tally.fail(f"trace: top-level spans cover only {coverage:.3f} of the run")
    return out


def span_coverage(tracer: Tracer, start: float) -> float:
    """Share of the time since `start` that the top-level spans cover."""
    covered = sum(end - begin for _, begin, end, parent in tracer.spans if parent < 0)
    return covered / (clock() - start)


def tracemalloc_peak_mb(w: Workload, manifest: str, seed: int) -> float:
    """Peak traced Python allocation over one setup, a few steps and scores."""
    gc.collect()
    tracemalloc.start()
    try:
        s, model = setup(w, manifest, seed)
        M.train(model, s.train_docs[:TRACEMALLOC_DOCS], train_config(w, seed))
        M.score_dataset(model, s.val_docs[:TRACEMALLOC_DOCS])
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def corpus_bytes(manifest: str) -> int:
    base = os.path.dirname(manifest)
    return sum(os.path.getsize(os.path.join(base, f)) for f in os.listdir(base)
               if f.endswith((".json", ".jsonl")))


# ---------------------------------------------------------------------------
# run metadata and the command line
# ---------------------------------------------------------------------------


def git_sha(root: str) -> str | None:
    """HEAD commit of the checkout, or None outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(root: str, w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": w.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(root),
        "mulcom": mulcom.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
    }


def run(w: Workload, seed: int, seconds: int, trace: bool, work_dir: str):
    """One benchmark run; returns (result, metadata extras, tracer)."""
    tally, tracer, start = Tally(), Tracer(), clock()
    with tracer.span("prepare"):
        manifest, quality = prepare_in_child(w, seed, os.path.join(work_dir, "corpus"),
                                             not trace)
    if trace:
        metrics = run_traced(tracer, start, w, seed, manifest, work_dir, tally)
        extras = {}
    else:
        metrics, extras = run_untraced(tracer, w, seed, seconds, manifest, tally, quality)
    if not metrics:
        tally.fail("no metrics: training failed")
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    extras["problems"] = tally.problems
    return result, extras, tracer


def main(argv: list[str], root: str) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(root, ".perfbench_work")
    work_dir = os.path.join(out_dir, f"{w.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        result, extras, tracer = run(w, args.seed, args.seconds, bool(args.trace), work_dir)
        if args.trace:
            tracer.write(os.path.join(out_dir, f"spans-{w.name}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    meta = metadata(root, w, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{w.name:14s} {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for problem in extras["problems"]:
        print(f"{w.name}: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"meta": {**meta, **extras}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
