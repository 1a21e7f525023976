"""Search benchmark: scan, lookup and ingest workloads over the lake.

Run from the root of the repository:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics and
writes the span file and the per-layer table under ``.perfbench_out/``.
See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("relevant_hits", "count"),
    ("main_peak_rss_mb", "MB"),
    ("spark_peak_rss_mb", "MB"),
)

# (metric, unit, source, how): "per_unit" divides self time by the spans'
# units, "total" sums self time, "mean" averages a recorded count.
PER_LAYER = (
    ("chartsim.extract_s", "s/query", "chartsim.extract", "per_unit"),
    ("line_encoder.encode_s", "s/query", "line_encoder.encode", "per_unit"),
    ("index.probe_s", "s/query", "index.probe", "per_unit"),
    ("index.candidates", "tables/query", "index.candidates", "mean"),
    ("index.candidate_recall", "share", "index.candidate_recall", "mean"),
    ("index.build_s", "s/op", "index.build", "per_unit"),
    ("repository.frame_s", "s/op", "repository.frame", "per_unit"),
    ("repository.embed_s", "s/op", "repository.embed", "per_unit"),
    ("dataset_encoder.encode_table_s", "s/table", "dataset_encoder.encode_table", "per_unit"),
    ("dataset_encoder.tables_encoded", "count/op", "dataset_encoder.tables_encoded", "mean"),
    ("dataset_encoder.variants_per_column", "count", "dataset_encoder.variants_per_column", "mean"),
    ("matcher.score_s", "s/pair", "matcher.score", "per_unit"),
    ("matcher.pairs", "count/op", "matcher.pairs", "mean"),
    ("matcher.columns_seen", "count/pair", "matcher.columns_seen", "mean"),
    ("matcher.columns_kept", "count/pair", "matcher.columns_kept", "mean"),
    ("search.fixed_s", "s/call", "search.fixed", "per_unit"),
    ("search.stage_s", "s/op", "search.stage", "per_unit"),
    ("search.topk_s", "s/op", "search.topk", "per_unit"),
    ("relevance.ground_truth_s", "s", "relevance.ground_truth", "total"),
    ("relevance.pairs", "count", "relevance.pairs", "mean"),
    ("train.fit_s", "s", "train.fit", "total"),
    ("bench.inputs_s", "s", "bench.inputs", "total"),
    ("spark.warmup_s", "s", "spark.warmup", "total"),
)
#: a layer's figure comes from the first stage that traced it: the timed
#: ops, then the checks after them, then set-up, then the layer sweep
STAGES = ("op", "check", "setup", "sweep")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan", "lookup", "ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def layer_metrics(tracer) -> tuple[dict, list[str]]:
    from perfbench.tracing import layer_seconds

    secs = layer_seconds(tracer.spans)
    metrics, lines = {}, []
    for metric, unit, source, how in PER_LAYER:
        value, stage, detail = None, None, ""
        for st in STAGES:
            if how == "mean":
                vals = [v for s, v in tracer.counts.get(source, []) if s == st]
                if vals:
                    value, stage, detail = sum(vals) / len(vals), st, f"{len(vals)} records"
            elif (source, st) in secs:
                t, units, n = secs[(source, st)]
                value = t / units if how == "per_unit" else t
                stage, detail = st, f"{n} spans, {units:g} units, {t:.4f} s self"
            if value is not None:
                break
        if value is None:
            raise RuntimeError(f"layer metric {metric} was not measured")
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{metric:38s} {value:14.6g} {unit:13s} from {stage:6s} ({detail})")
    return metrics, lines


def tracing_overhead(phase) -> tuple[float, int]:
    """Median over the places in a round of (traced minus untraced latency)."""
    from perfbench.stats import percentile

    diffs = []
    for pos in sorted(set(phase.positions)):
        ops = [(t, tr) for t, tr, p in zip(phase.latencies, phase.traced, phase.positions) if p == pos]
        on = [t for t, tr in ops if tr]
        off = [t for t, tr in ops if not tr]
        if on and off:
            diffs.append(percentile(on, 50) - percentile(off, 50))
    return percentile(diffs, 50), len(diffs)


def run(args) -> tuple[dict, bool]:
    # imported here, not at the top: they import the program, whose path
    # main() puts on sys.path first
    from perfbench import lakegen
    from perfbench.stats import TreePeak, main_peak_rss_mb, percentile, rate
    from perfbench.tracing import Tracer
    from perfbench.workloads import (
        WORKLOADS,
        SPARK_THREADS,
        Context,
        layer_sweep,
        start_spark,
        stop_spark,
        timed_phase,
    )

    trace = bool(args.trace)
    tracer = Tracer(trace)
    peak = TreePeak(SPARK_THREADS)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    spark = None
    try:
        with tracer.span("spark.warmup"):
            spark = start_spark(tmp)
        with tracer.span("bench.inputs"):
            inputs = lakegen.build_inputs(args.seed)
        ctx = Context(spark, inputs, tracer)
        wl = WORKLOADS[args.workload](ctx)
        wl.setup(full=trace)
        wl.warmup()
        setup_s = time.perf_counter() - t0
        peak.sample()
        tracer.stage = "op"
        phase = timed_phase(wl, args.seconds, trace, peak)
        main_rss = main_peak_rss_mb()  # before the checks add their own work
        tracer.stage = "check"
        ctx.checked(wl.final_checks)
        if trace:
            present = {s.name for s in tracer.spans if s.stage in ("op", "check")}
            tracer.stage = "sweep"
            layer_sweep(ctx, present)
        peak.sample()
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(
        f"[perfbench] {args.workload} seed={args.seed}: attempted={phase.attempted} "
        f"failed={phase.failed} timed={phase.seconds:.3f}s setup={setup_s:.3f}s "
        f"ops={[round(t, 3) for t in phase.latencies]} "
        f"spark_rss={ {p: round(v) for p, v in peak.peaks.items()} }",
        file=sys.stderr,
    )
    if trace:
        metrics, lines = layer_metrics(tracer)
        overhead, places = tracing_overhead(phase)
        lines.append(
            f"{'trace.overhead_s':38s} {overhead:14.6g} {'s/op':13s} "
            f"median over {places} places in the round of traced minus untraced latency"
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s/op"}
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write(f"{stem}-spans.jsonl")
        Path(f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
    else:
        metrics = {
            "setup_s": setup_s,
            "items_per_s": rate(phase.items, phase.seconds),
            "latency_p50_s": percentile(phase.latencies, 50),
            "relevant_hits": wl.hits,
            "main_peak_rss_mb": main_rss,
            "spark_peak_rss_mb": peak.total_mb,
        }
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        lines = [f"{k:38s} {m['value']:14.6g} {m['unit']}" for k, m in metrics.items()]
    for line in lines:
        print(line)
    result = {
        "correct": not ctx.errors,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }
    return result, not ctx.errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[perfbench] no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # the Spark JVM and its Python workers inherit these
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = paths
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # the JVM that assembles the Spark command would otherwise write to /tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    result, ok = run(args)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
