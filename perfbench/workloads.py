"""The two workloads: ``topk-wire`` and ``batch-full``.

Each one runs in rounds until its time is up.  A round sets the program
up afresh from the same seeded XML (timed) and sends the same fixed
list of queries (each one timed); after the first round's queries, two
volume replacements (each one timed) check the write path.  Every round
thus repeats the same work on an identical store (see
``perfbench/README.md`` for how the rounds are summed up).

The workloads drive the program only through its public entry points:
the wire protocol (``QueryServer`` + ``PooledClient``),
``execute_batch`` with a ``QueryCache`` (the ``tix batch`` front door),
and ``QueryServer.add_document``/``remove_document``.
"""

from __future__ import annotations

import gc
import random
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import calibration, corpus, reference
from perfbench.tracing import Tracer

K = 10
TOPK_SHAPE = corpus.StoreShape(n_volumes=4, articles_per_volume=80)
#: many small volumes: a Pick query's cost follows the size of its
#: volume, and with four large ones the slowest tenth of the topics
#: was set by one or two volumes, so it moved with each seed's sizes
BATCH_SHAPE = corpus.StoreShape(n_volumes=8, articles_per_volume=15)
#: queries per round: 100, so that 10 lie above p90.  Rounds are kept
#: short (about 2 s) so that every query is timed many times, spread
#: over the run: see Result.query_ms
TOPK_QUERIES = 100
BATCH_SIZE = 20
#: execute_batch calls per round (12 x 20 = 240 topics).  Topic costs
#: rise steeply around the median, so query_p50_ms needs many topics to
#: settle (with 100 it moved by up to 20% from seed to seed); but each
#: query's best needs many rounds (with 400 topics, 10-15 rounds fitted
#: a run and query_p90_ms followed their number).
BATCH_CALLS = 12
#: volume replacements, made after the first round's queries: they
#: exercise the write path and check that each write becomes readable
TOPK_PROBES = 2
BATCH_PROBES = 2
#: execute_batch pool width.  One, not the default two: with two
#: threads each query's elapsed_ms includes GIL waits on the other, and
#: measured here that tripled the run-to-run spread of query_p50_ms
#: without raising qps.
BATCH_WORKERS = 1
#: one answer in this many (of the first round) is compared with the
#: reference; every later round must give the first round's answers
SAMPLE_TOPK = 8
SAMPLE_BATCH = 4
#: warm-up texts, kept apart from the measured ones
WARM_TOPK = 4
WARM_BATCH = 6


@dataclass
class Result:
    """What one run measured."""

    #: one timed set-up per round
    setup_s: List[float] = field(default_factory=list)
    #: per round, the latency (ms) of each query of the fixed list, in
    #: list order; ``None`` where the query failed
    rounds: List[List[Optional[float]]] = field(default_factory=list)
    #: per round, the garbage collector's pauses (ms) inside each query,
    #: where the workload records them (see :meth:`query_ms`)
    pause_rounds: List[List[float]] = field(default_factory=list)
    #: the collector's pauses (ms) inside the measured queries, in total
    gc_ms: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: volume replacements attempted, and the time (ms) until each one
    #: that succeeded was readable
    writes: int = 0
    write_ms: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    checked: int = 0
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    batch_sum_s: List[float] = field(default_factory=list)
    batch_wall_s: List[float] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)
    #: stores built, timed or not (each builds the indexes once)
    builds: int = 0
    #: the calibration task's best time (ms) before each round
    calib_ms: List[float] = field(default_factory=list)

    @property
    def latencies_ms(self) -> List[float]:
        return [x for r in self.rounds for x in r if x is not None]

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    def per_round(self, stat: Callable[[List[float]], float],
                  ) -> List[float]:
        """``stat`` of each round's successful latencies."""
        rounds = ([x for x in r if x is not None] for r in self.rounds)
        return [stat(ok) for ok in rounds if ok]

    def query_ms(self) -> List[float]:
        """One latency per query of the fixed list: its best over the
        rounds without the collector's pauses inside it, plus the pauses
        it had in the round whose pauses add up to the least.

        The collector's passes can fall on different queries from round
        to round; a plain best per query would then drop them.  Their
        work repeats every round, so, like the rest of each query, they
        are taken from where the machine ran them fastest.  Where no
        pauses are recorded, this is each query's plain best."""
        pauses = self.pause_rounds or [[0.0] * len(r) for r in self.rounds]
        least = min(pauses, key=sum)
        out = []
        for i, column in enumerate(zip(*self.rounds)):
            work = [x - p[i] for x, p in zip(column, pauses)
                    if x is not None]
            if work:
                out.append(min(work) + least[i])
        return out

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def add_cache_stats(self, stats: Dict[str, Dict[str, int]]) -> None:
        for tally, counts in stats.items():
            mine = self.cache_stats.setdefault(tally, {})
            for key in ("hits", "misses"):
                mine[key] = mine.get(key, 0) + counts.get(key, 0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_store(sources: Dict[str, str]):
    from repro.xmldb.store import XMLStore

    store = XMLStore()
    for name, xml in sources.items():
        store.load(name, xml)
    return store


def store_info(sources: Dict[str, str], store) -> Dict[str, Any]:
    return {
        "volumes": len(sources),
        "elements": store.n_elements,
        "xml_mb": round(sum(len(x.encode()) for x in sources.values())
                        / 1e6, 3),
    }


def run_rounds(seconds: float, rounds: Optional[int],
               one_round: Callable[[int], None],
               warm: Callable[[], None], res: Result) -> None:
    """``warm()`` once, then ``one_round(i)`` until ``seconds`` have
    passed (always at least once), or exactly ``rounds`` times.  Before
    each round, with none of the program's threads running, the
    machine's speed is gauged (see ``perfbench/calibration.py``)."""
    warm()
    t0 = perf_counter()
    done = 0
    while (done < rounds if rounds is not None
           else done == 0 or perf_counter() - t0 < seconds):
        res.calib_ms.append(calibration.measure())
        one_round(done)
        done += 1


def timed_setup(build: Callable[[], Any], res: Result) -> Any:
    """One set-up, from a collected heap, timed into ``setup_s``."""
    gc.collect()
    t0 = perf_counter()
    built = build()
    res.setup_s.append(perf_counter() - t0)
    res.builds += 1
    return built


def untimed_setup(build: Callable[[], Any],
                  teardown: Callable[[Any], None], res: Result) -> None:
    """A set-up that pays the process's one-off costs (imports, heap
    growth) before any is timed."""
    teardown(build())
    res.builds += 1


def start_measuring(tracer: Optional[Tracer]) -> None:
    """Collect the heap first.  A freshly built store has not yet been
    through a full collection, so until one runs the collector counts
    it as new and soon walks it all again.  A server that has run for a
    while is past that; so is the measured phase."""
    gc.collect()
    if tracer is not None:
        tracer.mark_start()


def stop_measuring(tracer: Optional[Tracer]) -> None:
    if tracer is not None:
        tracer.mark_end()


class GcPauses:
    """The garbage collector's pauses inside each query of a list.
    While query ``current`` is in flight, every collection's duration is
    added to it.  A collection holds the interpreter lock throughout,
    so every thread, the waiting client's included, sits it out."""

    def __init__(self, n: int) -> None:
        self.ms = [0.0] * n
        self.current: Optional[int] = None
        self._start = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = perf_counter()
        elif self.current is not None:
            self.ms[self.current] += (perf_counter() - self._start) * 1e3

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


class Answers:
    """Checks answers as they arrive.  Every round must give the first
    round's answers, and a seeded sample of the first round's is kept
    for the reference check.  Otherwise only a digest of each answer is
    kept, so the benchmark adds little to the heap that the program's
    garbage collector walks."""

    def __init__(self, res: Result, seed: int, n: int,
                 sample_every: int) -> None:
        self.res = res
        rng = random.Random(f"sample:{seed}")
        self.sampled = {i for i in range(n)
                        if not rng.randrange(sample_every)}
        self.first: Dict[int, int] = {}
        #: the sampled answers of the first round, by query position
        self.kept: Dict[int, Any] = {}

    def check(self, round_no: int, i: int, rows: Sequence[Any]) -> None:
        digest = hash(tuple(rows))
        if round_no == 0:
            self.first[i] = digest
            if i in self.sampled:
                self.kept[i] = rows
        elif self.first.get(i) != digest:
            self.res.fail(f"round {round_no} query {i}: answer differs "
                          f"from the first round's")


# ----------------------------------------------------------------------
# The served configuration (as ``tix serve --query-port`` builds it)
# ----------------------------------------------------------------------

class Served:
    """Store + ``QueryServer`` with a ``QueryCache`` and the metrics
    ``Collector`` installed, as ``tix serve --query-port`` sets it up."""

    def __init__(self, sources: Dict[str, str]) -> None:
        from repro import obs
        from repro.obs.tracestore import RetentionPolicy, TraceStore
        from repro.perf import QueryCache
        from repro.server import QueryServer

        obs.install(obs.Collector())
        self.store = load_store(sources)
        self.cache = QueryCache(self.store)
        self.server = QueryServer(
            self.store, max_inflight=8, queue_timeout_ms=1000.0,
            cache=self.cache,
            trace_store=TraceStore(
                capacity=256,
                policy=RetentionPolicy(slow_ms=250.0, sample_rate=0.0)),
        )
        self.server.start()

    def client(self):
        from repro.server import PooledClient

        return PooledClient(self.server.host, self.server.port, size=1,
                            call_timeout_s=60.0)

    def replace(self, name: str, xml: str) -> int:
        """Replace one volume through the server's write path; returns
        the generation a reader must see from then on."""
        self.server.remove_document(name)
        self.server.add_document(name, xml)
        return self.store.generation

    def close(self) -> None:
        from repro import obs

        self.server.close(drain_s=5.0)
        obs.uninstall()


def wire_rows(reply) -> List[Tuple[Optional[float], str]]:
    return [(r.score, r.xml) for r in reply.rows]


def check_marker(rows: Sequence[Tuple[Optional[float], str]],
                 marker: str) -> str:
    """The marker word sits in one paragraph of the replaced volume, so
    the p, its section and its article score 0.8 each."""
    scores = sorted(round(s or 0.0, reference.DIGITS) for s, _ in rows)
    if scores != [reference.PRIMARY_WEIGHT] * 3:
        return f"marker {marker}: scores {scores}"
    if not all(marker in xml for _s, xml in rows):
        return f"marker {marker}: rows without the marker"
    return ""


def probe_writes(res: Result, write: Callable[[str, str], None],
                 read_marker: Callable[[str, str], str], name: str,
                 versions: Sequence[Tuple[str, str]]) -> None:
    """Back-to-back replacements of volume ``name``, each timed until it
    is readable.  Like each set-up, each write starts from a collected
    heap, so that garbage left by the queries does not decide which
    write pays for a full collection.  A write that raises or is not
    readable counts as a failure, and no more are made, since the
    volume may be left removed."""
    for marker, xml in versions:
        gc.collect()
        res.writes += 1
        t0 = perf_counter()
        try:
            write(name, xml)
            err = read_marker(name, marker)
        except Exception as exc:  # any failure counts against the run
            err = f"{type(exc).__name__}: {exc}"
        if err:
            res.fail(f"write {res.writes}: {err}")
            return
        res.write_ms.append((perf_counter() - t0) * 1000.0)


# ----------------------------------------------------------------------
# Wire clients
# ----------------------------------------------------------------------

def _reply_check(generation: Callable[[], int],
                 ) -> Callable[[Any, str], Tuple[Any, str]]:
    """A sender that checks every wire reply: ``(reply, error)``.
    ``generation()`` is the generation of the last acknowledged write,
    read when the request is sent."""
    def check(reply, acked: int) -> str:
        scores = [r.score for r in reply.rows]
        if reply.truncated or reply.degraded:
            return f"truncated/degraded reply ({reply.reason})"
        if len(reply.rows) > K:
            return f"{len(reply.rows)} rows > {K}"
        if not reference.ranked_order_ok(scores):
            return f"not ranked: {scores}"
        if reply.generation < acked:
            return (f"generation {reply.generation} older than the "
                    f"last acknowledged write ({acked})")
        return ""

    def send_and_check(client, text: str) -> Tuple[Any, str]:
        acked = generation()
        reply = client.query(text)
        return reply, check(reply, acked)
    return send_and_check


def _timed_send(client, send: Callable[[Any, str], Tuple[Any, str]],
                text: str, res: Result, what: str,
                ) -> Tuple[Optional[float], Any]:
    """Send one query: ``(latency ms or None if it failed, reply)``."""
    t0 = perf_counter()
    try:
        reply, err = send(client, text)
    except Exception as exc:  # any failure counts against the run
        reply, err = None, f"{type(exc).__name__}: {exc}"
    ms = (perf_counter() - t0) * 1000.0
    res.attempted += 1
    if err:
        res.fail(f"{what}: {err}")
        return None, None
    return ms, reply


def warm_up(served: Served, texts: Sequence[str]) -> None:
    with served.client() as client:
        for text in texts:
            client.query(text)


def _check_wire_sample(res: Result, store, sources: Dict[str, str],
                       topics: Sequence[corpus.Topic],
                       answers: Answers) -> None:
    """Compare the sampled top-k replies with the reference."""
    oracle = reference.Oracle(store, sources)
    for i, rows in sorted(answers.kept.items()):
        topic = topics[i]
        got = [(round(score, reference.DIGITS),
                reference.canonical_xml(xml))
               for score, xml in rows]
        want = oracle.answer(topic.volume, topic.kind, topic.items)
        res.checked += 1
        err = reference.compare_topk(got, want, K)
        if err:
            res.fail(f"query {i} ({topic.volume} {topic.items}): {err}")


# ----------------------------------------------------------------------
# topk-wire
# ----------------------------------------------------------------------

def topk_wire(seed: int, seconds: float, tracer: Optional[Tracer],
              shape: corpus.StoreShape = TOPK_SHAPE,
              size: int = TOPK_QUERIES,
              rounds: Optional[int] = None) -> Result:
    """One closed-loop wire client sending ``size`` distinct top-10
    queries per round to a freshly set-up server.  One client, not two:
    the engine is pure Python, so a second one only adds GIL
    contention."""
    sources = corpus.generate_store(seed, shape)
    name = corpus.volume_name(0)
    versions = corpus.variants(seed, shape, 0, TOPK_PROBES)
    topics = corpus.distinct_topk_queries(
        seed, sorted(sources), size + WARM_TOPK, k=K)
    topics, warm = topics[:-WARM_TOPK], topics[-WARM_TOPK:]
    texts = [t.text for t in topics]
    res = Result()
    answers = Answers(res, seed, len(texts), SAMPLE_TOPK)
    send = _reply_check(lambda: 0)

    def one_round(r: int) -> None:
        served = timed_setup(lambda: Served(sources), res)
        try:
            # Warm-up: interpreter and allocator state, not caches
            # (every measured text is distinct from these).
            warm_up(served, [t.text for t in warm])
            latencies: List[Optional[float]] = []
            with served.client() as client:
                start_measuring(tracer)
                with GcPauses(len(texts)) as pauses:
                    for i, text in enumerate(texts):
                        pauses.current = i
                        ms, reply = _timed_send(client, send, text, res,
                                                f"round {r} query {i}")
                        pauses.current = None
                        latencies.append(ms)
                        if reply is not None:
                            answers.check(r, i, wire_rows(reply))
                stop_measuring(tracer)
                res.rounds.append(latencies)
                res.pause_rounds.append(pauses.ms)
                res.gc_ms += sum(pauses.ms)
                res.add_cache_stats(served.cache.stats())
                if r == 0:
                    res.peak_rss_mb = peak_rss_mb()
                    _check_wire_sample(res, served.store, sources, topics,
                                       answers)
                    res.info.update(store_info(sources, served.store))

                def read_marker(vol: str, marker: str) -> str:
                    reply = client.query(
                        corpus.ranked_query(vol, [marker], stop_after=K))
                    return check_marker(wire_rows(reply), marker)

                if r == 0:
                    probe_writes(res, served.replace, read_marker, name,
                                 versions)
        finally:
            served.close()

    run_rounds(seconds, rounds, one_round,
               lambda: untimed_setup(lambda: Served(sources),
                                     lambda s: s.close(), res), res)
    return res


# ----------------------------------------------------------------------
# batch-full
# ----------------------------------------------------------------------

def batch_full(seed: int, seconds: float, tracer: Optional[Tracer],
               shape: corpus.StoreShape = BATCH_SHAPE,
               size: int = BATCH_CALLS,
               rounds: Optional[int] = None) -> Result:
    """Per round, ``size`` ``execute_batch`` calls of ``BATCH_SIZE``
    topics each on a freshly built store, each call with a fresh
    ``QueryCache``, like ``tix batch`` (but with ``BATCH_WORKERS`` pool
    threads)."""
    from repro.perf import QueryCache, execute_batch

    sources = corpus.generate_store(seed, shape)
    name = corpus.volume_name(0)
    versions = corpus.variants(seed, shape, 0, BATCH_PROBES)
    topics = corpus.batch_topics(seed, sources,
                                 size * BATCH_SIZE + WARM_BATCH)
    topics, warm = topics[:-WARM_BATCH], topics[-WARM_BATCH:]
    res = Result()
    answers = Answers(res, seed, len(topics), SAMPLE_BATCH)
    res.info["evaluator_queries"] = 0
    res.info["evaluator_ms"] = 0.0

    def build():
        store = load_store(sources)
        store.index
        store.structure
        store.stats
        return store

    def one_round(r: int) -> None:
        store = timed_setup(build, res)

        # tix batch has no live-update path: a write goes to the store,
        # and the next execute_batch rebuilds the indexes.
        def write(vol: str, xml: str) -> None:
            store.remove_document(vol)
            store.load(vol, xml)

        def read_marker(vol: str, marker: str) -> str:
            out = execute_batch(
                store, [corpus.ranked_query(vol, [marker], stop_after=K)],
                cache=QueryCache(store))[0]
            if not out.ok:
                return f"marker {marker}: {out.error_type}: {out.error}"
            return check_marker(
                [(t.score, t.to_xml()) for t in out.results], marker)

        # Warm-up batch, from topics kept apart from the measured ones.
        execute_batch(store, [t.text for t in warm],
                      cache=QueryCache(store))
        latencies: List[Optional[float]] = [None] * len(topics)
        start_measuring(tracer)
        # The queries run on the pool's thread, so the collector's pauses
        # are only totalled here (see Result.query_ms).
        with GcPauses(1) as pauses:
            pauses.current = 0
            for call in range(size):
                first = call * BATCH_SIZE
                batch = topics[first:first + BATCH_SIZE]
                cache = QueryCache(store)
                result = execute_batch(store, [t.text for t in batch],
                                       cache=cache,
                                       max_workers=BATCH_WORKERS)
                res.batch_wall_s.append(result.wall_ms / 1000.0)
                res.batch_sum_s.append(
                    sum(o.elapsed_ms for o in result) / 1000.0)
                res.add_cache_stats(cache.stats())
                for i, (topic, outcome) in enumerate(zip(batch, result),
                                                     start=first):
                    res.attempted += 1
                    if topic.kind == "pick":
                        res.info["evaluator_queries"] += 1
                        res.info["evaluator_ms"] += outcome.elapsed_ms
                    err = _batch_outcome_error(outcome, topic)
                    if err:
                        res.fail(f"round {r} topic {i} ({topic.kind} "
                                 f"{topic.volume} {topic.items}): {err}")
                        continue
                    latencies[i] = outcome.elapsed_ms
                    answers.check(r, i, _rows(outcome.results))
        res.gc_ms += pauses.ms[0]
        stop_measuring(tracer)
        res.rounds.append(latencies)
        if r == 0:
            res.peak_rss_mb = peak_rss_mb()
            oracle = reference.Oracle(store, sources)
            for i, rows in sorted(answers.kept.items()):
                topic = topics[i]
                res.checked += 1
                err = _batch_reference_error(oracle, store, topic, rows)
                if err:
                    res.fail(f"topic {i} ({topic.kind} {topic.volume} "
                             f"{topic.items}): {err}")
            res.info.update(store_info(sources, store))
        if r == 0:
            probe_writes(res, write, read_marker, name, versions)

    run_rounds(seconds, rounds, one_round,
               lambda: untimed_setup(build, lambda s: None, res), res)
    return res


def _batch_outcome_error(outcome, topic: corpus.Topic) -> str:
    if not outcome.ok:
        return f"{outcome.error_type}: {outcome.error}"
    if outcome.truncated:
        return f"truncated ({outcome.reason})"
    if topic.kind != "pick" and not reference.ranked_order_ok(
            [t.score for t in outcome.results]):
        return "not ranked"
    return ""


def _rows(trees: Sequence[Any]) -> List[Tuple[float, Any]]:
    """(score, stored node) of each answer tree."""
    return [(round(t.score, reference.DIGITS), t.root.source)
            for t in trees]


def _batch_reference_error(oracle: reference.Oracle, store,
                           topic: corpus.Topic,
                           rows: List[Tuple[float, Any]]) -> str:
    if topic.kind == "pick":
        from repro.query.evaluator import run_query

        want = _rows(run_query(store, topic.text))
        return "" if rows == want else (
            f"{len(rows)} rows vs {len(want)} from an uncached run")
    doc_id = store.document(topic.volume).doc_id
    if any(src is None or src[0] != doc_id for _s, src in rows):
        return "rows from outside the queried volume"
    vol = oracle.volume(topic.volume)
    got = [(score, vol.canon(src[1])) for score, src in rows]
    want = oracle.answer(topic.volume, topic.kind, topic.items)
    return reference.compare_full(got, want)


WORKLOADS: Dict[str, Callable[..., Result]] = {
    "topk-wire": topk_wire,
    "batch-full": batch_full,
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0 for no values,
    which happens only in a run that failed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
