"""Output checks made apart from the search path.

Each check raises :class:`CheckError` with what it saw. None of them
compares against a stored copy of an earlier output: they test properties
every correct output has, or compare with a result computed in this
process by the program's public per-pair functions.
"""
from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


def check_scores(scored: list[tuple[str, float]], where: str) -> None:
    """Every score is finite and in [0, 1], as a sigmoid output must be."""
    for tid, s in scored:
        if not (math.isfinite(s) and 0.0 <= s <= 1.0):
            _fail(f"{where}: score {s!r} of {tid} is not a finite value in [0, 1]")


def check_ranking(
    scored: list[tuple[str, float]], n_candidates: int, k: int, where: str
) -> None:
    """A ranking is sorted by (-score, table_id) and has min(k, candidates) entries."""
    want = min(k, n_candidates)
    if len(scored) != want:
        _fail(f"{where}: {len(scored)} ranked tables, expected min(k={k}, {n_candidates}) = {want}")
    keys = [(-s, t) for t, s in scored]
    if keys != sorted(keys):
        _fail(f"{where}: ranking is not sorted by (-score, table_id): {scored}")
    if len({t for t, _ in scored}) != len(scored):
        _fail(f"{where}: a table is ranked twice: {scored}")


def check_ids(ranked: list[str], candidates, k: int, where: str) -> None:
    """A ranking without scores: the right length, distinct, only candidates."""
    n = len(candidates)
    if len(ranked) != min(k, n):
        _fail(f"{where}: {len(ranked)} ranked tables, expected min(k={k}, {n})")
    if len(set(ranked)) != len(ranked) or not set(ranked) <= set(candidates):
        _fail(f"{where}: ranking {ranked} repeats a table or holds a non-candidate")


def reference_ranking(
    scores: dict[str, float], k: int
) -> list[tuple[str, float]]:
    """Top-k of main-process scores, by (-score, table_id)."""
    return sorted(scores.items(), key=lambda ts: (-ts[1], ts[0]))[:k]


def check_matches_reference(
    got: list[tuple[str, float | None]],
    ref: list[tuple[str, float]],
    where: str,
    tol: float = 1e-9,
) -> None:
    """The program's top-k equals the reference ranking; where the program
    returned scores, they agree to within ``tol``."""
    if [t for t, _ in got] != [t for t, _ in ref]:
        _fail(f"{where}: top-k {[t for t, _ in got]} != main-process top-k {[t for t, _ in ref]}")
    for (t, s), (_, r) in zip(got, ref):
        if s is not None and not abs(s - r) <= tol:
            _fail(f"{where}: score of {t} is {s!r}, main process gives {r!r}")


def check_hybrid(hybrid: set, interval: set, lsh: set, where: str) -> None:
    """Hybrid candidates are interval candidates ∩ LSH candidates (Sec. VI-A)."""
    if hybrid != (interval & lsh):
        _fail(
            f"{where}: hybrid candidates differ from interval ∩ LSH by "
            f"{sorted(hybrid ^ (interval & lsh))}"
        )


def overlapping_tables(tables, y_range: tuple[float, float]) -> set[str]:
    """Tables with a column whose raw [min, max] overlaps ``y_range``."""
    lo, hi = y_range
    return {
        t.table_id
        for t in tables
        if any(np.min(c) <= hi and np.max(c) >= lo for c in t.columns)
    }


def check_interval_lossless(interval: set, tables, y_range, where: str) -> None:
    """Every table that has a column in the query's tick range is an interval
    candidate; this holds for any lossless interval key."""
    missing = overlapping_tables(tables, y_range) - interval
    if missing:
        _fail(f"{where}: interval index dropped tables {sorted(missing)} whose columns overlap {y_range}")


def random_hits(candidates: set, relevant: set, k: int) -> float:
    """Expected relevant tables in a random top-k of the candidates."""
    if not candidates:
        return 0.0
    return min(k, len(candidates)) * len(candidates & relevant) / len(candidates)


def check_beats_random(hits: int, expected_random: float, where: str) -> None:
    if not hits > expected_random:
        _fail(f"{where}: {hits} relevant hits, a random ranking expects {expected_random:.2f}")


def check_same_passes(first: dict, later: dict, where: str) -> None:
    """Every pass over the query set returns identical rankings."""
    for qid, ranked in later.items():
        if first.get(qid) != ranked:
            _fail(f"{where}: pass ranked {qid} as {ranked}, the first pass as {first.get(qid)}")


def ingest_problems(
    table_id: str,
    intervals: list[tuple[float, float]],
    embeddings: list[np.ndarray],
    found_by_range: bool,
    found_by_embedding: bool,
) -> list[str]:
    """Why an ingested table is not searchable; empty when it is."""
    out = []
    if not all(math.isfinite(v) for iv in intervals for v in iv):
        out.append(f"{table_id}: non-finite interval key {intervals}")
    if not all(np.all(np.isfinite(e)) for e in embeddings):
        out.append(f"{table_id}: non-finite column embedding")
    if not found_by_range:
        out.append(f"{table_id}: not returned when probed with its column range")
    if not found_by_embedding:
        out.append(f"{table_id}: not returned when probed with its column embedding")
    return out
