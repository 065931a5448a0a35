"""Seeded corpus and query-text generation for the benchmark.

A store is a set of ``<volume>`` documents of different sizes, each
holding many ``<article>`` elements whose text is drawn from a
Zipf-distributed vocabulary (``w0`` most frequent).  Everything is a
pure function of the seed: the same seed gives byte-identical XML and
query texts, which ``test_perfbench.py`` asserts.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

VOCABULARY = 4000
#: one batch topic in this many is a Pick query (the evaluator path):
#: a quarter of the topics and about a third of their time
PICK_EVERY = 4
#: Zipf exponent offset: weight of rank r is 1 / (r + ZIPF_OFFSET).
ZIPF_OFFSET = 4


@dataclass(frozen=True)
class StoreShape:
    """How big a generated store is."""

    n_volumes: int
    articles_per_volume: int
    #: per-volume size multipliers cycle through these, so volumes differ
    size_factors: Tuple[float, ...] = (1.4, 0.6, 1.0, 1.2, 0.8)


class Vocabulary:
    """Zipf-weighted word source over ``w0 … w{n-1}``."""

    def __init__(self, n: int = VOCABULARY) -> None:
        self.words = [f"w{i}" for i in range(n)]
        acc = 0.0
        self._cum: List[float] = []
        for rank in range(n):
            acc += 1.0 / (rank + ZIPF_OFFSET)
            self._cum.append(acc)

    def sample(self, rng: random.Random, k: int) -> List[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)

    def rank_sample(self, rng: random.Random, lo: int, hi: int) -> str:
        """One word drawn Zipf-wise among ranks ``[lo, hi)``."""
        base = self._cum[lo - 1] if lo else 0.0
        x = base + rng.random() * (self._cum[hi - 1] - base)
        return self.words[min(bisect.bisect_left(self._cum, x), hi - 1)]


def _text(vocab: Vocabulary, rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(vocab.sample(rng, rng.randint(lo, hi)))


def volume_xml(rng: random.Random, vocab: Vocabulary, vol: int,
               n_articles: int, marker: str = "") -> str:
    """One ``<volume>`` document.  ``marker``, when given, is planted as
    an extra word in the first paragraph of the last article (the
    benchmark's readability probe after a volume replacement)."""
    out = [f'<volume id="v{vol}">']
    for a in range(n_articles):
        out.append(f'<article id="v{vol}a{a}">')
        out.append(f"<title>{_text(vocab, rng, 2, 6)}</title>")
        out.append(f"<abstract>{_text(vocab, rng, 8, 20)}</abstract>")
        for s in range(rng.randint(1, 3)):
            out.append("<section>")
            out.append(f"<st>{_text(vocab, rng, 2, 5)}</st>")
            for p in range(rng.randint(2, 4)):
                words = _text(vocab, rng, 10, 30)
                if marker and a == n_articles - 1 and s == 0 and p == 0:
                    words = f"{marker} {words}"
                out.append(f"<p>{words}</p>")
            out.append("</section>")
        out.append("</article>")
    out.append("</volume>")
    return "".join(out)


def volume_name(vol: int) -> str:
    return f"vol{vol}.xml"


def volume_articles(shape: StoreShape, vol: int) -> int:
    factor = shape.size_factors[vol % len(shape.size_factors)]
    return max(1, round(shape.articles_per_volume * factor))


def generate_store(seed: int, shape: StoreShape) -> Dict[str, str]:
    """``{volume name: XML text}`` for a seeded store of ``shape``."""
    rng = random.Random(f"store:{seed}")
    vocab = Vocabulary()
    return {volume_name(v): volume_xml(rng, vocab, v,
                                       volume_articles(shape, v))
            for v in range(shape.n_volumes)}


def variants(seed: int, shape: StoreShape, vol: int,
             n: int) -> List[Tuple[str, str]]:
    """``n`` replacement versions of volume ``vol``, the same size as
    the original: ``(marker, xml)``, each holding its own marker word."""
    rng = random.Random(f"variants:{seed}")
    vocab = Vocabulary()
    return [(f"zmark{i}",
             volume_xml(rng, vocab, vol, volume_articles(shape, vol),
                        marker=f"zmark{i}"))
            for i in range(n)]


# ----------------------------------------------------------------------
# Query texts
# ----------------------------------------------------------------------

def _terms(items: Sequence[str]) -> str:
    return ", ".join(f'"{t}"' for t in items)


def ranked_query(volume: str, items: Sequence[str],
                 stop_after: int = 0) -> str:
    """The compilable ranked shape over one volume's articles
    (``ScoreFooExact``, ``Sortby(score)``, positive-score Threshold,
    optional ``stop after``)."""
    cut = f" stop after {stop_after}" if stop_after else ""
    return (
        f'For $a in document("{volume}")//article/descendant-or-self::*\n'
        f"Score $a using ScoreFooExact($a, {{{_terms(items)}}})\n"
        f"Return $a\n"
        f"Sortby(score)\n"
        f"Threshold $a/@score > 0{cut}"
    )


def pick_query(volume: str, items: Sequence[str]) -> str:
    """A ``Pick … using PickFoo`` query: outside the compilable shape,
    so it runs on the reference evaluator."""
    return (
        f'For $a in document("{volume}")//article/descendant-or-self::*\n'
        f"Score $a using ScoreFooExact($a, {{{_terms(items)}}})\n"
        f"Pick $a using PickFoo($a)\n"
        f"Return $a"
    )


@dataclass(frozen=True)
class Topic:
    """One query text, with what the reference needs to check it."""

    text: str
    kind: str  # "term" | "phrase" | "pick"
    volume: str
    items: Tuple[str, ...]


def distinct_topk_queries(seed: int, volumes: Sequence[str], n: int,
                          k: int = 10) -> List["Topic"]:
    """``n`` distinct top-``k`` texts with 1–3 mid-frequency terms.
    Volumes and term counts rotate rather than being drawn, so every
    seed gives the same mix of query shapes and only the terms vary."""
    rng = random.Random(f"topk:{seed}")
    vocab = Vocabulary()
    seen = set()
    out: List[Topic] = []
    for _attempt in range(50 * n):
        if len(out) == n:
            break
        i = len(out)
        vol = volumes[i % len(volumes)]
        n_terms = 1 + (i // len(volumes)) % 3
        items = sorted({vocab.rank_sample(rng, 40, 400)
                        for _ in range(n_terms)})
        key = (vol, tuple(items))
        if key in seen:
            continue
        seen.add(key)
        out.append(Topic(ranked_query(vol, items, stop_after=k), "term",
                         vol, tuple(items)))
    if len(out) < n:
        raise ValueError(f"only {len(out)} distinct queries of {n}")
    return out


def adjacent_pairs(xml: str) -> List[Tuple[str, str]]:
    """Adjacent word pairs of the ``<p>`` texts of one volume."""
    pairs: List[Tuple[str, str]] = []
    for chunk in xml.split("<p>")[1:]:
        words = chunk.split("</p>", 1)[0].split()
        pairs.extend(zip(words, words[1:]))
    return pairs


def batch_topics(seed: int, store: Dict[str, str], n: int) -> List[Topic]:
    """``n`` distinct batch topics: one ``Pick`` query in every
    ``PICK_EVERY`` (it runs on the evaluator), phrase queries built from
    adjacent word pairs of the generated text (one topic in three), and
    full ranked answers on 1–2 frequent terms.  Kinds, volumes and term
    counts rotate, so every seed gives the same mix."""
    rng = random.Random(f"batch:{seed}")
    vocab = Vocabulary()
    volumes = sorted(store)
    pairs = {v: adjacent_pairs(store[v]) for v in volumes}
    made = {"pick": 0, "phrase": 0, "term": 0}
    seen = set()
    out: List[Topic] = []
    for _attempt in range(50 * n):
        if len(out) == n:
            break
        i = len(out)
        if i % PICK_EVERY == PICK_EVERY - 1:
            kind = "pick"
        elif i % 3 == 2:
            kind = "phrase"
        else:
            kind = "term"
        j = made[kind]
        vol = volumes[j % len(volumes)]
        n_terms = 1 + (j // len(volumes)) % 2
        if kind == "phrase":
            items: Tuple[str, ...] = (" ".join(rng.choice(pairs[vol])),)
        else:
            top = 100 if kind == "pick" else 120
            items = tuple(sorted({vocab.rank_sample(rng, 0, top)
                                  for _ in range(n_terms)}))
        key = (kind, vol, items)
        if key in seen:
            continue
        seen.add(key)
        made[kind] += 1
        text = (pick_query(vol, items) if kind == "pick"
                else ranked_query(vol, items))
        out.append(Topic(text, kind, vol, items))
    if len(out) < n:
        raise ValueError(f"only {len(out)} distinct topics of {n}")
    return out
