"""Tape records per doc for each stream set at d=32, as a markdown table.

    python3 perfbench/records_table.py [--seed 1]

Uses the default planted corpus (400 train and 400 val docs), the
criterion-4 reasoner (2 steps, 4 heads) and one training epoch of batch
16. Records come from a traced epoch; train and eval ms/doc from an
untraced epoch and one untraced ``score_dataset`` call over the val split.
"""

import argparse
import os
import shutil
import sys

from run import ROOT, bootstrap

STREAM_SETS = (
    ("word",),
    ("sentence",),
    ("relation",),
    ("word", "relation"),
    ("word", "sentence", "relation"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not bootstrap():
        return 2
    import mulcom.model as M
    from layer_trace import Tracer, patched
    from mulcom_bench import Tally, Workload, make_corpus, setup, train_round

    work_dir = os.path.join(ROOT, ".perfbench_work", f"records-pid{os.getpid()}")
    rows = []
    try:
        for streams in STREAM_SETS:
            w = Workload("records", model=dict(
                streams=streams, d_f=32, d_a=32, d_h=32, reasoner_steps=2,
                reasoner_heads=4), train_docs=400, val_docs=400, epochs=1)
            manifest = make_corpus(w, args.seed, work_dir)
            s, _ = setup(w, manifest, args.seed)
            tracer, tally = Tracer(), Tally()
            with patched(tracer.step_clock()):
                train_round(tracer, w, s, args.seed, tally)
                with patched(tracer.layer_wrappers()):
                    lo = len(tracer.spans)
                    model, _ = train_round(tracer, w, s, args.seed, tally)
                    records, _ = tracer.charged(lo, len(tracer.spans))
                    docs = tracer.summary(lo, len(tracer.spans))["model.forward"]["calls"]
            with tracer.span("eval"):
                M.score_dataset(model, s.val_docs)
            if tally.failed:
                print(f"{streams}: {tally.problems}", file=sys.stderr)
                return 1
            train_s = tracer.durations("train")[0]
            eval_s = tracer.durations("eval")[0]
            rows.append((
                "+".join(streams) if len(streams) < 3 else "all three",
                records["model.forward"] / docs,
                1e3 * train_s / docs,
                1e3 * eval_s / len(s.val_docs),
            ))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("| streams | tape records/doc | train ms/doc | eval ms/doc |")
    print("|---|---|---|---|")
    for name, rec, tr, ev in rows:
        print(f"| {name} | {rec:.1f} | {tr:.1f} | {ev:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
