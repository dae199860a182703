"""Tests of the benchmark's own arithmetic: the tail-percentile rule,
window blocks, stream determinism, blocking-path self times and the row oracle's
float tolerance.  None of them starts a server."""

from __future__ import annotations

import pytest

from perfbench import streams
from perfbench.oracle import canonical, rows_match
from perfbench.stats import (
    LADDER, blocks, quantile, quieter_half, tail_percentile,
)
from perfbench.tracing import Span, self_time, self_time_check, tree_self_times


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (450, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        cut = quantile(values, expected / 100.0)
        assert sum(v > cut for v in values) >= 10
        # The next ladder step would leave fewer than ten.
        higher = [p for p in LADDER if p > expected]
        assert not higher or n * (100 - higher[0]) / 100 < 10


def test_quantile_interpolates_between_order_statistics():
    values = [float(i) for i in range(40)]
    assert quantile(values, 0.75) == pytest.approx(29.25)
    assert quantile([0.3, 0.1, 0.2], 0.5) == 0.2


# -- window blocks -----------------------------------------------------------

@pytest.mark.parametrize("steps, size, expected", [
    (0, 1, []),
    (3, 1, [(0, 1), (1, 2), (2, 3)]),
    (9, 10, []),
    (25, 10, [(0, 10), (10, 20)]),
])
def test_blocks_are_equal_runs_of_steps_and_drop_the_remainder(
        steps, size, expected):
    assert blocks(steps, size) == expected


def test_the_quieter_half_keeps_the_cheapest_blocks_in_order():
    assert quieter_half([5.0, 1.0, 4.0, 2.0, 3.0]) == [1, 3]
    assert quieter_half([3.0, 1.0, 2.0, 1.0]) == [1, 3]
    assert quieter_half([7.0]) == [0]
    with pytest.raises(ValueError):
        quieter_half([])


# -- generator determinism ---------------------------------------------------

def test_same_seed_gives_byte_identical_streams():
    a = streams.mix_stream(7, 6)
    b = streams.mix_stream(7, 6)
    assert streams.serialize(a) == streams.serialize(b)
    assert streams.digest(a) == streams.digest(b)
    assert streams.digest(streams.mix_stream(8, 6)) != streams.digest(a)
    assert streams.digest(streams.hot_stream(7, 3)) == streams.digest(
        streams.hot_stream(7, 3))


def test_the_seed_picks_literals_not_the_order_of_shapes():
    a = streams.mix_stream(1, 3)
    b = streams.mix_stream(2, 3)
    assert [(q.family, q.strategy) for q in a] == [
        (q.family, q.strategy) for q in b]
    assert [q.sql for q in a] != [q.sql for q in b]
    # Rounds differ in order, so the overlaps vary within a run.
    size = len(streams.FAMILIES) * len(streams.STRATEGIES)
    assert [(q.family, q.strategy) for q in a[:size]] != [
        (q.family, q.strategy) for q in a[size:2 * size]]


def test_mix_rounds_hold_every_family_under_every_strategy_once():
    rounds = 4
    stream = streams.mix_stream(3, rounds)
    size = len(streams.FAMILIES) * len(streams.STRATEGIES)
    assert len(stream) == rounds * size
    for start in range(0, len(stream), size):
        pairs = {(q.family, q.strategy) for q in stream[start:start + size]}
        assert len(pairs) == size
    assert len({q.sql for q in stream}) == len(stream)


def test_hot_set_is_distinct_and_fixed_in_shape():
    hot = streams.hot_set(11)
    assert len({q.sql for q in hot}) == len(streams.HOT_SLOTS)
    assert sorted((q.family, q.strategy) for q in hot) == sorted(
        streams.HOT_SLOTS)
    assert streams.hot_stream(11, 4) == hot * 4


# -- self-time arithmetic ----------------------------------------------------

def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children count once; parts outside the span not at all.
    assert self_time((0.0, 10.0), [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    assert self_time((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == 8.0


class _N:
    def __init__(self, name, start, end, kids=()):
        self.name, self.start, self.end, self.kids = name, start, end, kids


def test_nested_self_times_sum_to_the_root_duration():
    root = _N("root", 0.0, 10.0, [
        _N("a", 1.0, 4.0, [_N("a1", 1.5, 2.0)]),
        _N("b", 5.0, 9.0, [_N("b1", 5.0, 6.0), _N("b2", 7.0, 9.0)]),
    ])
    parts = dict(tree_self_times(root, lambda n: n.kids))
    assert parts == {"root": 3.0, "a": 2.5, "a1": 0.5, "b": 1.0,
                     "b1": 1.0, "b2": 2.0}
    assert sum(parts.values()) == pytest.approx(10.0)


def _span(sid, name, start, end, parent=None, rid=None, **args):
    span = Span(sid, name, start, parent, rid, 1)
    span.end = end
    span.args.update(args)
    return span


def test_request_blocking_path_adds_up_to_client_latency():
    root = _span(1, "client.query", 0.0, 1.0, rid="q0")
    encode = _span(2, "net.encode", 0.0, 0.01, parent=root, rid="q0")
    decode = _span(3, "net.decode", 0.95, 1.0, parent=root, rid="q0")
    server = _span(4, "server.request", 0.05, 0.94, rid="q0")
    group = _span(5, "service.group", 0.2, 0.9, rids=["q0", "q1"])
    submit = _span(6, "service.submit", 0.2, 0.25, parent=group, rid="q0")
    other = _span(7, "service.submit", 0.25, 0.3, parent=group, rid="q1")
    run = _span(8, "service.run", 0.3, 0.88, parent=group)
    engine = _span(9, "exec.engine", 0.31, 0.85, parent=run)
    reply = _span(10, "net.encode", 0.91, 0.93, parent=server, rid="q0")
    spans = [encode, decode, submit, other, engine, run, group, reply,
             server, root]
    check = self_time_check(spans)
    assert check["requests"] == 1 and check["ok"]
    assert check["aggregate_gap"] == pytest.approx(0.0, abs=1e-12)
    # A child that leaks outside its parent shows up as a gap.
    leaky = _span(11, "net.decode", 0.5, 0.99, parent=root, rid="q0")
    assert not self_time_check(spans + [leaky])["ok"]


# -- oracle ------------------------------------------------------------------

def test_rows_match_is_a_multiset_compare_with_float_tolerance():
    reference = canonical([("FRANCE", 1.0), ("GERMANY", 2.5), ("FRANCE", 1.0)])
    assert rows_match([("GERMANY", 2.5), ("FRANCE", 1.0), ("FRANCE", 1.0)],
                      reference)
    assert rows_match([["FRANCE", 1.0000000000002], ["GERMANY", 2.5],
                       ["FRANCE", 1.0]], reference)
    assert not rows_match([("FRANCE", 1.0), ("GERMANY", 2.5)], reference)
    assert not rows_match([("FRANCE", 1.001), ("GERMANY", 2.5),
                           ("FRANCE", 1.0)], reference)
