"""Determinism of the benchmark's inputs and of its exact work counters.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Tiny stores keep it to a few seconds.  Counters are summed from each
query's own ``last_stats`` and plan row counts (the shared
``store.counters`` is updated by two batch workers without a lock), so
for a fixed seed a single-stream run must repeat them exactly.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import corpus, workloads  # noqa: E402
from perfbench.tracing import Tracer, install  # noqa: E402

TINY = corpus.StoreShape(n_volumes=3, articles_per_volume=8)
EXACT = ("postings_read", "scan_rows", "filter_rows", "nodes_materialized",
         "prefix_calls", "rows_out", "evaluate_calls")


def test_same_seed_same_inputs():
    a = corpus.generate_store(5, TINY)
    assert a == corpus.generate_store(5, TINY)
    assert a != corpus.generate_store(6, TINY)
    vols = sorted(a)
    assert (corpus.distinct_topk_queries(5, vols, 50)
            == corpus.distinct_topk_queries(5, vols, 50))
    assert (corpus.batch_topics(5, a, 30)
            == corpus.batch_topics(5, a, 30))
    assert (corpus.variants(5, TINY, 0, 4)
            == corpus.variants(5, TINY, 0, 4))


def test_distinct_topk_texts():
    texts = [t.text for t in corpus.distinct_topk_queries(
        3, ["vol0.xml", "vol1.xml"], 200)]
    assert len(set(texts)) == len(texts)


def _counted(name: str, seed: int, **kwargs) -> dict:
    tracer = install(Tracer())
    try:
        res = workloads.WORKLOADS[name](seed, 0.0, tracer, shape=TINY,
                                        **kwargs)
    finally:
        tracer.uninstall()
    assert not res.failures, res.failures
    assert res.completed > 0
    counts = {key: tracer.total(key) for key in EXACT}
    for tier, tally in res.cache_stats.items():
        counts[f"{tier}.hits"] = tally["hits"]
        counts[f"{tier}.misses"] = tally["misses"]
    counts["queries"] = res.completed
    return counts


@pytest.mark.parametrize("name,kwargs", [
    ("topk-wire", {"size": 12, "rounds": 2}),
    ("batch-full", {"size": 1, "rounds": 2}),
], ids=["topk-wire", "batch-full"])
def test_exact_counters_repeat(name, kwargs):
    first = _counted(name, 11, **kwargs)
    assert first["postings_read"] > 0
    assert first["scan_rows"] >= first["filter_rows"] > 0
    assert _counted(name, 11, **kwargs) == first
