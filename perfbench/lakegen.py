"""Seeded inputs for the search benchmark.

The make-up of every input (how many tables, their rows, columns, column
families, the line count M of each query, the DA operator and window) is
drawn once from the fixed ``LAYOUT_SEED``, so every run measures the same
amount of work. The ``--seed`` draws the values: every column, every
noise factor, which queries the checks sample and where the faulty ingest
batch sits in its round. The program only ever sees the generated tables
and rendered charts.

Query construction follows Sec. VII-A of the paper: the query tables are
stratified over the line-count buckets M in {1, 2-4, 5-7, >7}, each gets
one plain and one DA chart, and each has noisy duplicates in the lake.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.benchmark import Benchmark, Query
from repro.bench.plotly_lite import FAMILIES, gen_column
from repro.chartsim.extractor import extract
from repro.chartsim.renderer import LineChart, render_chart
from repro.chartsim.spec import ChartRecord, VisSpec, underlying_data
from repro.config import BenchmarkConfig
from repro.core.data import LakeTable

LAYOUT_SEED = 20250408
#: seed of the faulty ingest batch, whose inputs must not depend on --seed
FAULTY_BATCH_SEED = 7

QUERY_M = (1, 3, 6, 8)            # one query table per M bucket
DA_SPECS = (("avg", 4), ("sum", 8), ("max", 4), ("min", 6))
PARTIAL_QUERY = 1                  # this query table's plain chart is a row slice
N_DUPES = 3                        # noisy duplicates per query table
N_DISTRACTORS = 8
N_TRAIN, N_VAL = 4, 2              # head-training split (tables)
K = 4                              # top-k of every ranking
MIN_ROWS, MAX_ROWS = 240, 320
SCAN_BATCH = 4                     # queries per scan op
INGEST_BATCH = 12                  # tables per ingest op
INGEST_ROUND = 4                   # ingest ops per round, one of them faulty
FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class TableLayout:
    n_rows: int
    families: tuple[str, ...]
    scale: float
    base: float


@dataclass
class ChartQuery:
    """A rendered chart query plus what the checks know about it."""

    query_id: str
    chart: LineChart
    query: Query                  # extracted once at set-up (ground truth, training)
    full_range: bool


@dataclass
class Inputs:
    bench: Benchmark              # lake, queries, training split; ground truth filled later
    charts: list[ChartQuery]
    ingest_batches: list[list[tuple[str, list[np.ndarray]]]] = field(default_factory=list)
    faulty_slot: int = 0          # position of the faulty batch in each ingest round
    sample_rng: np.random.Generator | None = None


def _layout(rng: np.random.Generator, n_cols: int) -> TableLayout:
    fam = str(rng.choice(FAMILY_NAMES))
    fams = tuple(
        fam if rng.random() < 0.8 else str(rng.choice(FAMILY_NAMES))
        for _ in range(n_cols)
    )
    scale = float(10.0 ** rng.uniform(-1, 2))
    return TableLayout(
        n_rows=int(rng.integers(MIN_ROWS, MAX_ROWS + 1)),
        families=fams,
        scale=scale,
        base=float(rng.uniform(0.2, 1.0) * scale * rng.uniform(5, 40)),
    )


def _columns(layout: TableLayout, rng: np.random.Generator) -> list[np.ndarray]:
    return [
        gen_column(
            rng,
            layout.n_rows,
            fam,
            layout.scale * rng.uniform(0.6, 1.6),
            layout.base + rng.uniform(-1, 1) * layout.scale * 1.5,
        )
        for fam in layout.families
    ]


def _m_layouts(rng: np.random.Generator, ms, extra_hi: int) -> list[tuple[int, TableLayout]]:
    return [(m, _layout(rng, m + int(rng.integers(0, extra_hi + 1)))) for m in ms]


def build_inputs(seed: int) -> Inputs:
    """All inputs of one run, from the run's seed."""
    lay = np.random.default_rng(LAYOUT_SEED)
    val = np.random.default_rng(seed)

    q_layouts = _m_layouts(lay, QUERY_M, 1)
    d_ms = [int(lay.integers(1, 9)) for _ in range(N_DISTRACTORS)]
    d_layouts = _m_layouts(lay, d_ms, 1)
    t_layouts = _m_layouts(lay, [QUERY_M[i % 4] for i in range(N_TRAIN + N_VAL)], 1)
    dupe_extra = [lay.choice(FAMILY_NAMES) for _ in range(len(QUERY_M) * N_DUPES)]
    dupe_perm = [lay.permutation(64) for _ in range(len(QUERY_M) * N_DUPES)]
    partial = (float(lay.uniform(0.0, 0.3)), float(lay.uniform(0.7, 1.0)))

    def record(prefix: str, i: int, m: int, layout: TableLayout) -> ChartRecord:
        cols = _columns(layout, val)
        y_cols = tuple(range(m))
        return ChartRecord(LakeTable(f"{prefix}{i:03d}", cols), VisSpec(y_cols=y_cols))

    qrecs = [record("qry", i, m, lt) for i, (m, lt) in enumerate(q_layouts)]
    drecs = [record("rep", i, m, lt) for i, (m, lt) in enumerate(d_layouts)]
    trecs = [record("trn", i, m, lt) for i, (m, lt) in enumerate(t_layouts)]

    repository: dict[str, LakeTable] = {}
    repo_specs: dict[str, VisSpec] = {}
    for rec in qrecs + drecs:
        repository[rec.table.table_id] = rec.table
        repo_specs[rec.table.table_id] = rec.spec
    for qi, rec in enumerate(qrecs):
        src = rec.table
        for d in range(N_DUPES):
            j = qi * N_DUPES + d
            tid = f"{src.table_id}_d{d}"
            noisy = src.perturbed(val, 0.9, 1.1, tid).columns
            scale = float(np.mean([np.std(c) or 1.0 for c in src.columns]))
            base = float(np.mean([np.mean(c) for c in src.columns]))
            noisy.append(gen_column(val, src.n_rows, str(dupe_extra[j]), scale, base))
            order = [int(p) for p in dupe_perm[j] if p < len(noisy)]
            repository[tid] = LakeTable(tid, [noisy[p] for p in order])
            repo_specs[tid] = VisSpec(y_cols=tuple(order.index(c) for c in rec.spec.y_cols))

    cfg = BenchmarkConfig(
        n_base_tables=N_DISTRACTORS,
        n_query_tables=len(QUERY_M),
        n_dupes=N_DUPES,
        k=K,
        n_train_tables=N_TRAIN,
        n_val_tables=N_VAL,
        min_rows=MIN_ROWS,
        max_rows=MAX_ROWS,
        seed=seed,
    )
    charts: list[ChartQuery] = []
    for qi, rec in enumerate(qrecs):
        n = rec.table.n_rows
        plain = rec.spec
        if qi == PARTIAL_QUERY:
            plain = VisSpec(y_cols=plain.y_cols, row_range=(int(partial[0] * n), int(partial[1] * n)))
        op, w = DA_SPECS[qi]
        da = VisSpec(y_cols=rec.spec.y_cols, agg_op=op, window=w)
        for j, spec in enumerate((plain, da)):
            qid = f"{rec.table.table_id}_q{j}"
            data = underlying_data(rec.table, spec)
            chart = render_chart(data, cfg.chart)
            eq = extract(chart, query_id=qid, meta={"m": spec.m, "is_da": spec.is_da})
            query = Query(qid, rec.table.table_id, spec, eq, data)
            charts.append(ChartQuery(qid, chart, query, full_range=spec.row_range is None))

    bench = Benchmark(
        cfg=cfg,
        repository=repository,
        repo_specs=repo_specs,
        queries=[c.query for c in charts],
        train_records=trecs[:N_TRAIN],
        val_records=trecs[N_TRAIN:],
    )
    batches = [ingest_batch(val, f"ing{b}_", lay_seed=LAYOUT_SEED + 1) for b in range(INGEST_ROUND - 1)]
    return Inputs(
        bench=bench,
        charts=charts,
        ingest_batches=batches,
        faulty_slot=int(val.integers(0, INGEST_ROUND)),
        sample_rng=np.random.default_rng([seed, 1]),
    )


def ingest_batch(
    val: np.random.Generator, prefix: str, *, lay_seed: int, nan_cell: bool = False
) -> list[tuple[str, list[np.ndarray]]]:
    """Raw (table_id, columns) pairs of one ingest batch.

    Every batch has the same layout; ``nan_cell`` puts one NaN into the
    first table, as a real lake's missing value would.
    """
    lay = np.random.default_rng(lay_seed)
    out = []
    for i in range(INGEST_BATCH):
        layout = _layout(lay, int(lay.integers(2, 7)))
        out.append((f"{prefix}{i:02d}", _columns(layout, val)))
    if nan_cell:
        out[0][1][0][len(out[0][1][0]) // 2] = np.nan
    return out


def faulty_batch() -> list[tuple[str, list[np.ndarray]]]:
    """The ingest batch with one non-finite cell; the same in every run."""
    return ingest_batch(
        np.random.default_rng(FAULTY_BATCH_SEED), "nan_", lay_seed=LAYOUT_SEED + 1, nan_cell=True
    )
