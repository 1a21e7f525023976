"""Quick tests of the benchmark's own helpers and output checks.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each output check is shown to pass a correct output and to reject the
corrupted one it exists for. No Spark session is started.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import checks, lakegen  # noqa: E402
from perfbench.stats import percentile, rate  # noqa: E402
from perfbench.tracing import Span, Tracer, layer_seconds, self_times  # noqa: E402
from repro.bench.plotly_lite import m_bucket_label  # noqa: E402
from repro.core.data import LakeTable  # noqa: E402


# -- percentiles and rates ----------------------------------------------------
def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 75) == 3.25
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile([7.0], 75) == 7.0


def test_percentile_matches_numpy_linear():
    xs = np.random.default_rng(3).random(41)
    for q in (10, 25, 50, 75, 90):
        assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), abs=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_rate_is_items_over_the_whole_phase():
    # three ops of 1 s, 1 s and 2 s: 8 items in 4 s, not the mean of per-op rates
    assert rate(2 + 2 + 4, 1.0 + 1.0 + 2.0) == 2.0
    with pytest.raises(ValueError):
        rate(1, 0.0)


# -- spans ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0, 1, "op"),
        Span("a", 1.0, 4.0, 0, 0, 1, "op"),
        Span("b", 3.0, 5.0, 0, 0, 1, "op"),   # overlaps a: union is [1, 5]
        Span("c", 8.0, 12.0, 0, 0, 1, "op"),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 3.0, 2.0, 4.0])


def test_tracer_records_parent_op_and_stage():
    tr = Tracer(True)
    tr.op = 5
    with tr.span("outer"):
        with tr.span("inner", units=3):
            pass
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.op == 5 and inner.units == 3 and inner.stage == "setup"
    assert set(layer_seconds(tr.spans)) == {("outer", "setup"), ("inner", "setup")}


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("x"):
        tr.count("n", 1)
    assert tr.spans == [] and tr.counts == {}


# -- output checks ----------------------------------------------------------------
GOOD = [("t3", 0.9), ("t1", 0.7), ("t2", 0.7), ("t0", 0.1)]


def test_scores_check_rejects_nan_and_out_of_range():
    checks.check_scores(GOOD, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_scores([("t1", math.nan)], "nan")
    with pytest.raises(checks.CheckError):
        checks.check_scores([("t1", 1.5)], "above one")


def test_ranking_check_rejects_swapped_ranks_and_wrong_length():
    checks.check_ranking(GOOD, 9, 4, "ok")
    checks.check_ranking(GOOD[:2], 2, 4, "fewer candidates than k")
    swapped = [GOOD[1], GOOD[0]] + GOOD[2:]
    with pytest.raises(checks.CheckError):
        checks.check_ranking(swapped, 9, 4, "swapped")
    tie_swapped = [GOOD[0], GOOD[2], GOOD[1], GOOD[3]]
    with pytest.raises(checks.CheckError):
        checks.check_ranking(tie_swapped, 9, 4, "tie broken against table_id")
    with pytest.raises(checks.CheckError):
        checks.check_ranking(GOOD[:3], 9, 4, "short")


def test_reference_check_rejects_other_order_or_score():
    ref = checks.reference_ranking(dict(GOOD), 3)
    assert ref == GOOD[:3]
    checks.check_matches_reference(GOOD[:3], ref, "ok")
    checks.check_matches_reference([(t, None) for t, _ in GOOD[:3]], ref, "ids only")
    with pytest.raises(checks.CheckError):
        checks.check_matches_reference([GOOD[1], GOOD[0], GOOD[2]], ref, "swapped")
    with pytest.raises(checks.CheckError):
        checks.check_matches_reference([("t3", 0.9 + 1e-6)] + GOOD[1:3], ref, "score drift")


def test_hybrid_check_is_the_intersection():
    checks.check_hybrid({"a"}, {"a", "b"}, {"a", "c"}, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_hybrid({"a", "b"}, {"a", "b"}, {"a", "c"}, "extra")


def test_interval_check_rejects_a_dropped_candidate():
    tables = [
        LakeTable("in", [np.array([0.0, 1.0, 2.0])]),
        LakeTable("edge", [np.array([5.0, 9.0])]),    # touches the range at 5
        LakeTable("out", [np.array([50.0, 60.0])]),
    ]
    assert checks.overlapping_tables(tables, (1.5, 5.0)) == {"in", "edge"}
    checks.check_interval_lossless({"in", "edge", "out"}, tables, (1.5, 5.0), "superset")
    with pytest.raises(checks.CheckError):
        checks.check_interval_lossless({"in"}, tables, (1.5, 5.0), "dropped")


def test_ingest_check_rejects_non_finite_keys_and_misses():
    emb = [np.ones(4)]
    assert checks.ingest_problems("t", [(0.0, 1.0)], emb, True, True) == []
    assert checks.ingest_problems("t", [(math.nan, math.nan)], emb, True, True)
    assert checks.ingest_problems("t", [(0.0, math.inf)], emb, True, True)
    assert checks.ingest_problems("t", [(0.0, 1.0)], [np.array([np.nan])], True, True)
    assert checks.ingest_problems("t", [(0.0, 1.0)], emb, False, True)
    assert checks.ingest_problems("t", [(0.0, 1.0)], emb, True, False)


def test_random_hits_and_same_passes():
    assert checks.random_hits({"a", "b", "c", "d"}, {"a", "x"}, 2) == 0.5
    assert checks.random_hits(set(), {"a"}, 2) == 0.0
    with pytest.raises(checks.CheckError):
        checks.check_beats_random(1, 1.0, "tie")
    checks.check_same_passes({"q": ["a", "b"]}, {"q": ["a", "b"]}, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_same_passes({"q": ["a", "b"]}, {"q": ["b", "a"]}, "changed")


# -- inputs -------------------------------------------------------------------------
def test_inputs_repeat_per_seed_and_keep_their_layout():
    a, b, c = lakegen.build_inputs(5), lakegen.build_inputs(5), lakegen.build_inputs(6)
    for tid, t in a.bench.repository.items():
        assert all(np.array_equal(x, y) for x, y in zip(t.columns, b.bench.repository[tid].columns))
        other = c.bench.repository[tid]
        assert (t.n_rows, t.n_cols) == (other.n_rows, other.n_cols)
        assert not np.array_equal(t.columns[0], other.columns[0])
    assert [q.m for q in a.bench.queries] == [q.m for q in c.bench.queries]
    assert [m_bucket_label(q.m) for q in a.bench.queries[::2]] == ["1", "2-4", "5-7", ">7"]


def test_faulty_batch_does_not_depend_on_the_seed():
    one, two = lakegen.faulty_batch(), lakegen.faulty_batch()
    nan_cells = [
        (tid, i) for tid, cols in one for i, c in enumerate(cols) if not np.all(np.isfinite(c))
    ]
    assert len(nan_cells) == 1
    for (_, x), (_, y) in zip(one, two):
        assert all(np.array_equal(p, q, equal_nan=True) for p, q in zip(x, y))
