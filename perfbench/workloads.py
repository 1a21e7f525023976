"""Set-up, ops and output checks of the three workloads.

Every workload runs in one process as a closed loop with one client and no
think time: the next op starts when the previous one has returned. A run
attempts whole rounds of ops (a pass over the query set, or a round of
ingest batches), so every run attempts the same ops in the same shares.
"""
from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import pandas as pd

from repro.baselines.base import Method
from repro.bench.benchmark import Query, compute_ground_truth
from repro.bench.harness import FCMMethod, run_method, train_fcm
from repro.chartsim.extractor import extract
from repro.core.data import LakeTable
from repro.core.dataset_encoder import DatasetEncoder
from repro.core.fcm import make_model
from repro.core.matcher import filter_columns
from repro.core.relevance import rel_score
from repro.index.hybrid import build_hybrid_index, query_line_embeddings
from repro.lake.repository import embed_repository, repository_df
from repro.lake.search import SCORES_SCHEMA, ranked_topk, score_with_method, topk_df

from perfbench import checks, lakegen
from perfbench.lakegen import K, SCAN_BATCH
from perfbench.stats import TreePeak, descendants
from perfbench.tracing import Tracer

#: Spark threads: fixed, and one core short of a 4-core machine so the
#: driver JVM and this process do not compete with the tasks.
SPARK_THREADS = max(1, min(3, os.cpu_count() or 1))


class NoopMethod(Method):
    """A method whose encode and score do no work: one scoring call with it
    costs only the fixed Spark path (frame build, shuffle, applyInPandas,
    collect)."""

    name = "noop"

    def prepare_query(self, eq):
        return None

    def encode_table(self, table):
        return None

    def score(self, query_prep, table_enc) -> float:
        return 0.5


def start_spark(tmp_dir: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{SPARK_THREADS}]")
        # a fixed heap: a heap left to grow makes the JVM's peak RSS depend
        # on when the collector happened to run
        .config("spark.driver.memory", "512m")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(2 * SPARK_THREADS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.local.dir", str(tmp_dir))
        .config("spark.driver.extraJavaOptions", f"-Xms512m -XX:-UsePerfData -Djava.io.tmpdir={tmp_dir}")
        .config("spark.sql.warehouse.dir", str(tmp_dir / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM and its Python workers have ended."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while descendants(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.1)


class Context:
    """What the set-up made and the ops share."""

    def __init__(self, spark, inputs: lakegen.Inputs, tracer: Tracer) -> None:
        self.spark = spark
        self.inputs = inputs
        self.bench = inputs.bench
        self.tracer = tracer
        self.model = None
        self.method = None
        self.index = None
        self.lake_embs: dict[tuple[str, int], np.ndarray] = {}
        self.encodings: dict[str, object] = {}
        #: failed output checks; a run with any is not correct
        self.errors: list[str] = []

    def checked(self, fn, *args) -> bool:
        """Runs a check; a failed check is recorded and the run goes on, so
        the result still carries every metric."""
        try:
            return fn(*args) is not False
        except checks.CheckError as e:
            self.errors.append(str(e))
            print(f"[perfbench] CHECK FAILED: {e}", file=sys.stderr)
            return True

    # -- set-up steps ---------------------------------------------------
    def ground_truth(self) -> None:
        b = self.bench
        with self.tracer.span("relevance.ground_truth"):
            b.ground_truth = compute_ground_truth(b, spark=self.spark)
        self.tracer.count("relevance.pairs", len(b.queries) * len(b.repository))
        self.checked(self.check_ground_truth)

    def check_ground_truth(self) -> None:
        b = self.bench
        # DTW of a series with itself is 0, so Rel(D, source) is exactly 1
        for c in self.inputs.charts:
            q = c.query
            if c.full_range and not q.is_da:
                rel = rel_score(q.data, b.repository[q.source_table_id])
                if rel != 1.0:
                    raise checks.CheckError(f"Rel(D, source) of {q.query_id} is {rel!r}, not 1")
        for q in b.queries:
            got = b.ground_truth.get(q.query_id, [])
            if len(got) != K or len(set(got)) != K:
                raise checks.CheckError(f"ground truth of {q.query_id} is {got}")

    def train(self) -> None:
        self.model = make_model(self.bench.cfg.fcm)
        with self.tracer.span("train.fit"):
            train_fcm(self.bench, self.model)
        self.method = FCMMethod(self.model)

    def embed(self, tables: dict[str, LakeTable]) -> dict[tuple[str, int], np.ndarray]:
        with self.tracer.span("repository.frame"):
            df = repository_df(self.spark, tables)
        with self.tracer.span("repository.embed"):
            rows = embed_repository(df, self.bench.cfg.fcm).collect()
        return {
            (r["table_id"], r["col_id"]): np.asarray(r["emb"], dtype=np.float64) for r in rows
        }

    def build_index(self, tables, embs):
        with self.tracer.span("index.build"):
            return build_hybrid_index(tables, embs)

    def lake_index(self) -> None:
        self.lake_embs = self.embed(self.bench.repository)
        self.index = self.build_index(self.bench.repository, self.lake_embs)

    # -- main-process reference work -------------------------------------
    def encoding(self, tid: str):
        if tid not in self.encodings:
            with self.tracer.span("dataset_encoder.encode_table"):
                enc = self.model.encode_table(self.bench.repository[tid])
            self.tracer.count(
                "dataset_encoder.variants_per_column",
                float(np.mean([len(c.variants) for c in enc.columns])),
            )
            self.encodings[tid] = enc
        return self.encodings[tid]

    def reference_scores(self, query: Query, tables) -> dict[str, float]:
        """Scores of one query against ``tables`` from FCMModel.score, here."""
        qe = self.model.encode_query(query.extracted)
        out = {}
        for tid in sorted(tables):
            enc = self.encoding(tid)
            with self.tracer.span("matcher.score"):
                out[tid] = self.model.score(qe, enc)
            kept = filter_columns(qe, enc)
            self.tracer.count("matcher.columns_seen", enc.n_cols)
            self.tracer.count("matcher.columns_kept", len(kept))
        return out

    def probe(self, eq):
        tr = self.tracer
        with tr.span("line_encoder.encode"):
            qe = self.model.encode_query(eq)
        with tr.span("index.probe"):
            cands = self.index.candidates(
                "hybrid", y_range=qe.y_range, line_embs=query_line_embeddings(self.model, qe)
            )
        return qe, cands


def relevant(bench, qid: str) -> set[str]:
    return set(bench.ground_truth[qid])


def extract_query(ctx: Context, c: lakegen.ChartQuery) -> Query:
    with ctx.tracer.span("chartsim.extract"):
        eq = extract(c.chart, query_id=c.query_id, meta=dict(c.query.extracted.meta or {}))
    return dataclasses.replace(c.query, extracted=eq)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class Workload:
    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.first: dict = {}
        self.hits = 0

    def setup(self, full: bool) -> None:
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def op(self, arg):
        """One op; returns (items done, output)."""
        raise NotImplementedError

    def after_op(self, arg, out, pass_no: int) -> bool:
        """Checks one op's output; False when the op failed."""
        raise NotImplementedError

    def final_checks(self) -> None:
        raise NotImplementedError

    #: untimed ops before the timed phase: the first scoring calls pay for
    #: Python worker start-up and JVM compilation
    warmup_ops = 1

    def warmup(self) -> None:
        """Untimed ops; their inner spans are not recorded, so the span holds
        the whole first-call cost."""
        tr = self.ctx.tracer
        with tr.span("spark.warmup"):
            traced, tr.enabled = tr.enabled, False
            try:
                for arg in self.warmup_args():
                    self.op(arg)
            finally:
                tr.enabled = traced

    def warmup_args(self) -> list:
        return self.round()[: self.warmup_ops]

    def refused_ok(self, arg) -> bool:
        """Whether an op that raised counts as handled."""
        return False


class Scan(Workload):
    """A batch of chart queries scored against the whole lake, no index."""

    name = "scan"

    def setup(self, full: bool) -> None:
        self.ctx.ground_truth()
        self.ctx.train()
        if full:
            self.ctx.lake_index()

    def round(self) -> list:
        charts = self.ctx.inputs.charts
        # each batch mixes line counts, so both batches cost about the same
        order = [0, 3, 4, 7, 1, 2, 5, 6]
        picked = [charts[i] for i in order]
        return [tuple(picked[i : i + SCAN_BATCH]) for i in range(0, len(picked), SCAN_BATCH)]

    def op(self, batch):
        ctx = self.ctx
        queries = [extract_query(ctx, c) for c in batch]
        sub = dataclasses.replace(ctx.bench, queries=queries)
        with ctx.tracer.span("search.stage"):
            mr = run_method(ctx.spark, sub, ctx.method)
        n = len(ctx.bench.repository)
        ctx.tracer.count("matcher.pairs", len(queries) * n)
        ctx.tracer.count("dataset_encoder.tables_encoded", n)
        ctx.tracer.count("index.candidates", n)
        ctx.tracer.count("index.candidate_recall", 1.0)
        return len(batch), mr.rankings

    def after_op(self, batch, out, pass_no: int) -> bool:
        lake = self.ctx.bench.repository
        for c in batch:
            ranked = out.get(c.query_id, [])
            checks.check_ids(ranked, lake, K, f"scan {c.query_id}")
            if pass_no == 0:
                self.first[c.query_id] = ranked
                self.hits += len(set(ranked) & relevant(self.ctx.bench, c.query_id))
        if pass_no:
            checks.check_same_passes(self.first, {c.query_id: out[c.query_id] for c in batch}, "scan")
        return True

    def final_checks(self) -> None:
        ctx = self.ctx
        b = ctx.bench
        expected = sum(
            checks.random_hits(set(b.repository), relevant(b, q.query_id), K) for q in b.queries
        )
        checks.check_beats_random(self.hits, expected, "scan")
        c = ctx.inputs.charts[int(ctx.inputs.sample_rng.integers(len(ctx.inputs.charts)))]
        ref_scores = ctx.reference_scores(c.query, b.repository)
        checks.check_scores(list(ref_scores.items()), f"scan reference {c.query_id}")
        ref = checks.reference_ranking(ref_scores, K)
        checks.check_ranking(ref, len(b.repository), K, f"scan reference {c.query_id}")
        got = [(t, None) for t in self.first[c.query_id]]
        checks.check_matches_reference(got, ref, f"scan {c.query_id}")


class Lookup(Workload):
    """One chart query: extract, encode, hybrid index probe, Spark scoring of
    the candidates, top-k."""

    name = "lookup"
    warmup_ops = 1

    def setup(self, full: bool) -> None:
        self.ctx.ground_truth()
        self.ctx.train()
        self.ctx.lake_index()
        self.cands: dict[str, set[str]] = {}
        self.random_hits = 0.0

    def round(self) -> list:
        return list(self.ctx.inputs.charts)

    def op(self, c):
        ctx = self.ctx
        q = extract_query(ctx, c)
        qe, cands = ctx.probe(q.extracted)
        with ctx.tracer.span("search.stage"):
            scores = score_with_method(
                ctx.spark, ctx.bench.repository, [q], ctx.method, candidates={q.query_id: cands}
            )
            rows = topk_df(scores, K).select("table_id", "score", "rank").collect()
        rows.sort(key=lambda r: r["rank"])
        ctx.tracer.count("matcher.pairs", len(cands))
        ctx.tracer.count("dataset_encoder.tables_encoded", len(cands))
        ctx.tracer.count("index.candidates", len(cands))
        rel = relevant(ctx.bench, q.query_id)
        ctx.tracer.count("index.candidate_recall", len(cands & rel) / len(rel))
        return 1, (cands, [(r["table_id"], float(r["score"])) for r in rows], qe.y_range)

    def after_op(self, c, out, pass_no: int) -> bool:
        ctx = self.ctx
        cands, scored, y_range = out
        where = f"lookup {c.query_id}"
        checks.check_scores(scored, where)
        checks.check_ranking(scored, len(cands), K, where)
        if not {t for t, _ in scored} <= cands:
            raise checks.CheckError(f"{where}: ranked a table that is not a candidate")
        if pass_no == 0:
            self.first[c.query_id] = scored
            self.cands[c.query_id] = cands
            rel = relevant(ctx.bench, c.query_id)
            self.hits += len({t for t, _ in scored} & rel)
            self.random_hits += checks.random_hits(cands, rel, K)
            # the index's public query path, strategy by strategy
            embs = query_line_embeddings(ctx.model, ctx.model.encode_query(c.query.extracted))
            interval = ctx.index.candidates("interval", y_range=y_range, line_embs=embs)
            lsh = ctx.index.candidates("lsh", y_range=y_range, line_embs=embs)
            checks.check_hybrid(cands, interval, lsh, where)
            checks.check_interval_lossless(interval, ctx.bench.repository.values(), y_range, where)
        else:
            checks.check_same_passes(self.first, {c.query_id: scored}, "lookup")
        return True

    def final_checks(self) -> None:
        ctx = self.ctx
        checks.check_beats_random(self.hits, self.random_hits, "lookup")
        charts = ctx.inputs.charts
        c = charts[int(ctx.inputs.sample_rng.integers(len(charts)))]
        ref = checks.reference_ranking(ctx.reference_scores(c.query, self.cands[c.query_id]), K)
        checks.check_matches_reference(self.first[c.query_id], ref, f"lookup {c.query_id}")


class Ingest(Workload):
    """A fixed-size batch of tables made searchable: frame, embed, index."""

    name = "ingest"
    warmup_ops = 4

    def setup(self, full: bool) -> None:
        ctx = self.ctx
        if full:
            ctx.ground_truth()
            ctx.train()
        ctx.lake_index()
        inp = ctx.inputs
        faulty = lakegen.faulty_batch()
        self.batches = list(inp.ingest_batches)
        self.batches.insert(inp.faulty_slot, faulty)
        self.faulty = {id(faulty)}
        self.encoder = DatasetEncoder(ctx.bench.cfg.fcm.without_da())

    def round(self) -> list:
        return self.batches

    def warmup_args(self) -> list:
        clean = [b for b in self.batches if id(b) not in self.faulty]
        return (clean * self.warmup_ops)[: self.warmup_ops]

    def refused_ok(self, batch) -> bool:
        # a batch with a bad cell may be refused by an error anywhere
        return id(batch) in self.faulty

    def op(self, batch):
        ctx = self.ctx
        tables = {}
        for tid, cols in batch:
            try:
                tables[tid] = LakeTable(tid, cols)
            except ValueError:
                pass  # a refused table is handled: it is never searchable
        embs = ctx.embed(tables) if tables else {}
        index = ctx.build_index({**ctx.bench.repository, **tables}, {**ctx.lake_embs, **embs})
        ctx.tracer.count("dataset_encoder.tables_encoded", len(tables))
        ctx.tracer.count("matcher.pairs", 0)
        return len(tables), (tables, embs, index)

    def after_op(self, batch, out, pass_no: int) -> bool:
        faulty = id(batch) in self.faulty
        tables, embs, index = out
        problems, found = [], 0
        tr = self.ctx.tracer
        for tid, t in tables.items():
            col_embs = [embs.get((tid, i), np.array([np.nan])) for i in range(t.n_cols)]
            lo, hi = float(np.min(t.columns[0])), float(np.max(t.columns[0]))
            with tr.span("index.probe"):
                hits = index.candidates("interval", y_range=(lo, hi), line_embs=[])
                by_emb = tid in index.candidates("lsh", y_range=(lo, hi), line_embs=[col_embs[0]])
            by_range = tid in hits
            tr.count("index.candidates", len(hits))
            tr.count("index.candidate_recall", float(by_range and by_emb))
            p = checks.ingest_problems(tid, t.column_intervals(), col_embs, by_range, by_emb)
            problems += p
            found += not p
        if pass_no == 0 and not faulty:
            self.hits += found
        if problems and not faulty:
            raise checks.CheckError("ingest: " + "; ".join(problems))
        if problems and pass_no == 0:
            print("[perfbench] ingest op failed: " + "; ".join(problems), file=sys.stderr)
        return not problems

    def final_checks(self) -> None:
        if self.ctx.tracer.enabled:
            # identity-variant encoding is what embed_repository runs per column
            batch = next(b for b in self.batches if id(b) not in self.faulty)
            for tid, cols in batch:
                with self.ctx.tracer.span("dataset_encoder.encode_table"):
                    enc = self.encoder.encode_table(LakeTable(tid, cols))
                self.ctx.tracer.count(
                    "dataset_encoder.variants_per_column",
                    float(np.mean([len(c.variants) for c in enc.columns])),
                )


WORKLOADS = {w.name: w for w in (Scan, Lookup, Ingest)}


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    latencies: list[float]
    traced: list[bool]
    positions: list[int]                 # each op's place in its round
    items: int
    attempted: int
    failed: int

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def timed_phase(wl: Workload, seconds: float, trace: bool, peak: TreePeak) -> Phase:
    """Whole rounds of ops until ``seconds`` of op time have been measured.

    With tracing, each place in the round is traced in one round and not in
    the next, so the run can report the tracing overhead op for op, and the
    slower first round weighs on both sides; a traced run makes at least two.
    """
    tr = wl.ctx.tracer
    ph = Phase([], [], [], 0, 0, 0)
    pass_no = 0
    while True:
        for i, arg in enumerate(wl.round()):
            tr.enabled = trace and (pass_no + i) % 2 == 0
            tr.op = ph.attempted
            t0 = time.perf_counter()
            try:
                items, out = wl.op(arg)
            except Exception as e:  # an op that raises is a failed op
                items, out = 0, e
            dt = time.perf_counter() - t0
            ph.latencies.append(dt)
            ph.traced.append(tr.enabled)
            ph.positions.append(i)
            ph.attempted += 1
            tr.op = None
            tr.stage = "check"
            if isinstance(out, Exception):
                ok = wl.refused_ok(arg)
                if not ok:
                    traceback.print_exception(out, file=sys.stderr)
            else:
                ok = wl.ctx.checked(wl.after_op, arg, out, pass_no)
            tr.stage = "op"
            if ok:
                ph.items += items
            else:
                ph.failed += 1
        pass_no += 1
        peak.sample()
        if ph.seconds >= seconds and (not trace or pass_no >= 2):
            break
    tr.enabled = trace
    return ph


# ---------------------------------------------------------------------------
# the layer sweep of a traced run
# ---------------------------------------------------------------------------
def layer_sweep(ctx: Context, present: set[str]) -> None:
    """Times, on this run's inputs, the layers this workload's ops and checks
    did not reach, and the Spark stages no span from outside can separate."""
    tr = ctx.tracer
    b = ctx.bench
    charts = ctx.inputs.charts
    c = charts[int(ctx.inputs.sample_rng.integers(len(charts)))]
    q = extract_query(ctx, c)
    _qe, cands = ctx.probe(q.extracted)
    rel = relevant(b, q.query_id)
    tr.count("index.candidates", len(cands))
    tr.count("index.candidate_recall", len(cands & rel) / len(rel))
    few = set(sorted(cands)[:8] or sorted(b.repository)[:8])
    if "matcher.score" not in present:
        ctx.reference_scores(q, few)
    if "search.stage" not in present:
        with tr.span("search.stage"):
            score_with_method(
                ctx.spark, b.repository, [q], ctx.method, candidates={q.query_id: few}
            ).collect()
    noop = NoopMethod()
    for _ in range(3):
        with tr.span("search.fixed"):
            ranked_topk(score_with_method(ctx.spark, b.repository, [q], noop), K)
    pdf = pd.DataFrame(
        [(qq.query_id, tid, 0.5) for qq in b.queries for tid in b.repository],
        columns=["query_id", "table_id", "score"],
    )
    frame = ctx.spark.createDataFrame(pdf, schema=SCORES_SCHEMA)
    for _ in range(3):
        with tr.span("search.topk"):
            ranked_topk(frame, K)
