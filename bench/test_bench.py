"""Tests of the benchmark's own helpers, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

from tpir import linalg, scheme, simnet
from tpir.layout import SchemeParams

import layers
import run
from measure import percentile, run_closed_loop
from spans import ROOT, Recorder, Span, self_times_ns
from workloads import Retrieve, Serve

TINY = SchemeParams(2, 2, 1, 3)
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def test_percentile_nearest_rank():
    xs = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(xs, 50) == 50
    assert percentile(xs, 99) == 99
    assert percentile(xs, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([1.0, 2.0], 99) == 2.0  # fewer samples than 1/(1-p): the max
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_self_time_subtracts_direct_children():
    spans = [
        Span("parent", 0, 100, ROOT, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 40, 70, 0, 0),
        Span("grandchild", 12, 18, 1, 0),  # only reduces a
        Span("next op", 100, 110, ROOT, 1),
    ]
    assert self_times_ns(spans) == [50, 14, 30, 6, 10]


def test_recorder_nests_wrapped_calls():
    rec = Recorder()

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = rec.wrap("outer", outer, annotate=lambda a, k, r: {"result": r})
    rec.op = 7
    with rec.span("op"):
        assert traced_outer(1) == 4
    op, out, inn = rec.spans
    assert (op.parent, out.parent, inn.parent) == (ROOT, 0, 1)
    assert {s.op for s in rec.spans} == {7}
    assert out.attrs == {"result": 4}
    assert op.start_ns <= out.start_ns <= inn.start_ns <= inn.end_ns <= out.end_ns <= op.end_ns
    selfs = self_times_ns(rec.spans)
    assert selfs[1] == out.duration_ns - inn.duration_ns


def _serve(seed=3):
    w = Serve(seed, params=TINY)
    w.setup()
    return w


def _run(w):
    records = run_closed_loop(w, seconds=0, min_ops=w.min_ops)
    for i in w.verify():
        records[i].ok = False
    return records


def test_serve_counts_clean_run_as_correct():
    w = _serve()
    records = _run(w)
    assert len(records) == TINY.K * TINY.M
    assert all(r.ok for r in records)
    assert w.download_bytes and w.upload_bytes


class _CorruptNode:
    """A database that flips one symbol of every answer it gives."""

    def __init__(self, node):
        self.node = node

    def answer(self, query):
        ans, q = simnet.decode_answer(self.node.answer(query))
        values = ans.values.copy()
        values[0] = (values[0] + 1) % q
        return simnet.encode_answer(scheme.Answer(ans.db_id, values), q)


def test_corrupted_answer_is_a_failure_not_a_crash():
    w = _serve()
    w.nodes[0] = _CorruptNode(w.nodes[0])
    records = _run(w)
    failed = {r.index for r in records if not r.ok}
    corrupt_ops = {i for i in range(len(records)) if w.pool[w.inputs(i)][1] == 0}
    assert corrupt_ops and corrupt_ops <= failed
    assert len(failed) < len(records)


def test_raising_operation_is_a_failure_and_the_loop_goes_on():
    class Broken:
        def answer(self, query):
            raise simnet.ParseError("bad bytes", 0)

    w = _serve()
    w.nodes[1] = Broken()
    records = _run(w)
    assert len(records) == w.min_ops
    assert sum(not r.ok for r in records) >= TINY.K


def test_traced_session_reaches_every_expected_layer():
    original = linalg.mat_mul
    traced = layers.TracedRun()
    w = Retrieve(5, params=TINY)
    with traced.setup():
        assert linalg.mat_mul is not original
        w.setup()
    assert linalg.mat_mul is original
    w.inputs = traced.paired(w.inputs)
    assert w.inputs(1)[:2] == w.inputs(0)[:2]
    records = run_closed_loop(w, seconds=0, min_ops=4, around=traced.around)
    assert [r.ok for r in records] == [True] * 4
    assert traced.traced_ops == {0, 2}
    values, missing = traced.summary("retrieve-L625", records, PER_LAYER)
    assert missing == [] and traced.missing_sites == []
    assert values["linalg.sample_uniform_full_rank.calls"] == TINY.K
    assert values["linalg.invert.ops"] == TINY.L**3
    assert values["scheme.Decoder.decode.cold_s"] > 0
    assert 0 < values["trace.covered_frac"] <= 1
    assert -1 < values["trace.overhead_frac"]
    assert set(PER_LAYER) <= set(values)


def test_end_to_end_reports_every_benchmark_metric():
    w = Retrieve(5, params=TINY)
    w.setup()
    records = run_closed_loop(w, seconds=0)
    reported = run.end_to_end(w, records, setup_s=1.0)
    assert set(reported) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in reported.values())
