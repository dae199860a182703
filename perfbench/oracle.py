"""In-process reference computations, run outside the timed window.

* :func:`reference_rows` — the result oracle: every distinct query on
  the tuple-at-a-time path (``batch_execution=False``, the engine's
  semantic reference), baseline strategy, no caches, one fresh service
  per query so no cross-query state leaks into the reference.
* :func:`replay` — the paper's metrics: the replay list run one query
  at a time on the default service path, giving per-query virtual
  running time and peak intermediate state, which repeat exactly.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.service import QueryService, ServiceConfig

from perfbench.served import ERROR, OK, SHED, TIMEOUT

#: Relative tolerance for float columns.  Aggregates summed in another
#: order (a spilled hash aggregate, a different batch split) differ in
#: the last bits of a double; 1e-9 is far above that rounding and far
#: below any real error in these queries' values.
FLOAT_REL_TOL = 1e-9


def _sort_key(row: Sequence):
    return tuple(
        (0, value, "") if isinstance(value, (int, float))
        else (1, 0, repr(value))
        for value in row
    )


def canonical(rows: Iterable[Sequence]) -> List[tuple]:
    """Rows as tuples in a canonical order: a multiset, listed."""
    return sorted((tuple(row) for row in rows), key=_sort_key)


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=FLOAT_REL_TOL,
                                 abs_tol=FLOAT_REL_TOL))
    return a == b


def rows_match(rows: Iterable[Sequence], reference: List[tuple]) -> bool:
    """Whether ``rows`` equal ``reference`` as a multiset, with float
    columns compared to :data:`FLOAT_REL_TOL`."""
    got = canonical(rows)
    if got == reference:
        return True
    return len(got) == len(reference) and all(
        len(g) == len(r) and all(_same(x, y) for x, y in zip(g, r))
        for g, r in zip(got, reference)
    )


def reference_rows(catalog, sqls: Iterable[str]) -> Dict[str, List[tuple]]:
    """SQL text -> reference rows (see :func:`canonical`)."""
    config = ServiceConfig(
        strategy="baseline", batch_execution=False,
        aip_cache=False, result_cache=False,
    )
    out: Dict[str, List[tuple]] = {}
    for sql in sqls:
        if sql in out:
            continue
        with QueryService(catalog, config) as service:
            out[sql] = canonical(service.execute(sql).rows)
    return out


def replay(catalog, queries) -> Tuple[float, float, List[Dict]]:
    """(sum of virtual seconds, largest peak state MB, per-query rows)
    for ``queries`` replayed serially on one default-config service."""
    per_query: List[Dict] = []
    with QueryService(catalog, ServiceConfig()) as service:
        for query in queries:
            result = service.execute(query.sql, strategy=query.strategy)
            summary = result.metrics.summary()
            per_query.append({
                "family": query.family,
                "strategy": query.strategy,
                "virtual_s": summary["virtual_seconds"],
                "peak_state_mb": summary["peak_state_mb"],
            })
    return (
        sum(q["virtual_s"] for q in per_query),
        max(q["peak_state_mb"] for q in per_query),
        per_query,
    )


def check_results(catalog, stream, loops) -> dict:
    """Compare every ok reply with the oracle's reference multiset."""
    records = [r for loop in loops for r in loop.records]
    first_rows = {}
    for loop in loops:
        for sql, rows in loop.first_rows.items():
            first_rows.setdefault(sql, rows)
    ok = [r for r in records if r.status == OK]
    started = time.perf_counter()
    reference = reference_rows(catalog, (stream[r.index].sql for r in ok))
    mismatched = []
    for record in ok:
        sql = stream[record.index].sql
        rows = record.rows if record.rows is not None else first_rows[sql]
        if not rows_match(rows, reference[sql]):
            mismatched.append(record.index)
    return {
        "distinct_queries": len(reference),
        "mismatched": mismatched,
        "oracle_s": time.perf_counter() - started,
    }


def outcome_counts(records, mismatched) -> dict:
    """Requests by outcome; ``failed`` is everything but a correct reply."""
    counts = {"attempted": len(records), "mismatch": len(mismatched)}
    for status in (OK, ERROR, SHED, TIMEOUT):
        counts[status] = sum(1 for r in records if r.status == status)
    counts["cached"] = sum(1 for r in records if r.cached)
    counts["failed"] = (
        counts["error"] + counts["shed"] + counts["timeout"]
        + counts["mismatch"]
    )
    return counts
