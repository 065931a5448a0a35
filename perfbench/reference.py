"""Reference answers the benchmark checks replies against.

Scores come from the Comp1 (terms) and Comp3 (phrases) baselines that
``tests/differential`` holds equal to TermJoin and PhraseFinder.  The
volume filter, the phrase-count roll-up to ancestors and the ranking
are the benchmark's own.  Element identity comes from the generated XML
itself, parsed with :mod:`xml.etree.ElementTree`, so a change to how
the engine materializes or serializes results cannot also change what
it is checked against.  Pick queries, which only the reference
evaluator runs, are compared with an uncached in-process run.

These checks do not settle the known disagreement between the compiled
engine and the evaluator (ROADMAP, "One query pipeline, one
semantics"): ranked term and phrase queries are checked against the
engine's semantics, Pick queries against the evaluator's.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

_TOKEN = re.compile(r"[A-Za-z0-9]+")
#: ScoreFooExact's weight for terms of its first (primary) set.
PRIMARY_WEIGHT = 0.8
DIGITS = 6

Canon = Tuple[str, Tuple[str, ...]]
Answer = List[Tuple[float, Canon]]


def _tokens(text: Optional[str]) -> List[str]:
    return [m.lower() for m in _TOKEN.findall(text or "")]


def canonical(elem: ET.Element) -> Canon:
    """An element as (tag, every word of its subtree in order)."""
    words: List[str] = []

    def walk(e: ET.Element) -> None:
        words.extend(_tokens(e.text))
        for child in e:
            walk(child)
            words.extend(_tokens(child.tail))

    walk(elem)
    return elem.tag, tuple(words)


def canonical_xml(xml: str) -> Canon:
    return canonical(ET.fromstring(xml))


class Volume:
    """One generated volume, parsed independently of the engine.
    Elements are indexed in document order, which is also the engine's
    node numbering (checked by :meth:`Oracle.volume`)."""

    def __init__(self, xml: str) -> None:
        root = ET.fromstring(xml)
        self.elements = list(root.iter())
        index = {id(e): i for i, e in enumerate(self.elements)}
        self.parents = [-1] * len(self.elements)
        for i, e in enumerate(self.elements):
            for child in e:
                self.parents[index[id(child)]] = i
        # descendant-or-self of an <article>: the For path's filter
        self.in_article = [False] * len(self.elements)
        for i, e in enumerate(self.elements):
            p = self.parents[i]
            self.in_article[i] = e.tag == "article" or (
                p >= 0 and self.in_article[p])
        self._canon: Dict[int, Canon] = {}

    def canon(self, i: int) -> Canon:
        if i not in self._canon:
            self._canon[i] = canonical(self.elements[i])
        return self._canon[i]


class Oracle:
    """Reference answers over one store and the XML it was loaded from."""

    def __init__(self, store, sources: Dict[str, str]) -> None:
        self.store = store
        self.sources = sources
        self._volumes: Dict[str, Volume] = {}

    def volume(self, name: str) -> Volume:
        if name not in self._volumes:
            vol = Volume(self.sources[name])
            doc = self.store.document(name)
            if [e.tag for e in vol.elements] != list(doc.tags):
                raise AssertionError(
                    f"{name}: stored element order differs from the "
                    f"generated XML")
            self._volumes[name] = vol
        return self._volumes[name]

    def _ranked(self, name: str, scores: Dict[int, float]) -> Answer:
        vol = self.volume(name)
        out = [(round(s, DIGITS), vol.canon(i))
               for i, s in scores.items() if s > 0 and vol.in_article[i]]
        out.sort(key=lambda r: -r[0])
        return out

    def node_scores(self, name: str, kind: str,
                    items: Sequence[str]) -> Dict[int, float]:
        """``{node id: score}`` of every scored element of volume
        ``name`` (before the article filter)."""
        from repro.access.composite import Comp1, Comp3
        from repro.core.scoring import WeightedCountScorer

        doc_id = self.store.document(name).doc_id
        if kind == "term":
            scorer = WeightedCountScorer(list(items))
            return {r.node_id: r.score
                    for r in Comp1(self.store, scorer).run(list(items))
                    if r.doc_id == doc_id}
        if kind != "phrase":
            raise ValueError(f"no reference for {kind!r} queries")
        vol = self.volume(name)
        scores: Dict[int, float] = {}
        for phrase in items:
            for m in Comp3(self.store).run(phrase.split()):
                if m.doc_id != doc_id:
                    continue
                node = m.node_id
                while node >= 0:
                    scores[node] = (scores.get(node, 0.0)
                                    + PRIMARY_WEIGHT * m.count)
                    node = vol.parents[node]
        return scores

    def answer(self, name: str, kind: str, items: Sequence[str]) -> Answer:
        """The full ranked reference answer."""
        return self._ranked(name, self.node_scores(name, kind, items))


def compare_topk(reply: Answer, reference: Answer, k: int) -> str:
    """'' when ``reply`` is a correct top-``k`` of ``reference`` (tied
    scores compared as multisets), else what differs."""
    want = reference[:k]
    if sorted(s for s, _ in reply) != sorted(s for s, _ in want):
        return (f"top-{k} scores {[s for s, _ in reply]} != "
                f"{[s for s, _ in want]}")
    if not want:
        return ""
    floor = want[-1][0]
    allowed = Counter(r for r in reference if r[0] >= floor)
    extra = Counter(reply) - allowed
    if extra:
        return f"rows not in the reference: {list(extra)[:2]}"
    return ""


def compare_full(reply: Answer, reference: Answer) -> str:
    """'' when the full answers hold the same (score, element) rows."""
    if Counter(reply) != Counter(reference):
        missing = Counter(reference) - Counter(reply)
        extra = Counter(reply) - Counter(reference)
        return (f"{len(reply)} rows vs {len(reference)} expected; "
                f"missing {list(missing)[:1]}, extra {list(extra)[:1]}")
    return ""


def ranked_order_ok(scores: Sequence[Optional[float]]) -> bool:
    """Scores present and non-increasing."""
    if any(s is None for s in scores):
        return False
    return all(a >= b for a, b in zip(scores, scores[1:]))
