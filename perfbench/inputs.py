"""Seeded inputs: the XML each workload ingests and its request streams.

Everything here is a pure function of the seed.  Per-connection
streams are infinite and independent (``random.Random`` seeded with a
string is stable across processes and Python hash seeds), so the same
seed always yields the same requests in the same order; only how many
of them a timed window consumes depends on the machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from typing import Dict, Iterator, List

from repro.datamodel.serializer import serialize
from repro.datasets.dblp import DblpConfig, dblp_document
from repro.datasets.randomtree import random_document
from repro.datasets.textpool import TECH_NOUNS, paper_title, person_name

#: The random tree of every ``nearest-*`` workload (≈117.7k stored nodes).
RANDOM_NODES = 84_000
RANDOM_MAX_CHILDREN = 3
#: dblp as in the ``rw-mix`` workload: 68k nodes, ≈1.3 MB of XML.
DBLP_PAPERS_PER_PROCEEDINGS = 60
DBLP_ARTICLES_PER_YEAR = 40
DBLP_YEARS = tuple(range(1984, 2000))
DBLP_VENUES = ("ICDE", "VLDB", "SIGMOD", "EDBT")

NEAREST_LIMIT = 5
CASE_STUDY_LIMIT = 10
#: Distinct requests of the cached workload (all fit its 1024 slots).
CACHED_DISTINCT = 200
ZIPF_EXPONENT = 1.0
#: One op in this many is a write on ``rw-mix``.
WRITE_EVERY = 20


def random_xml(seed: int) -> str:
    return serialize(
        random_document(
            seed, nodes=RANDOM_NODES, max_children=RANDOM_MAX_CHILDREN
        )
    )


def dblp_xml(seed: int) -> str:
    return serialize(
        dblp_document(
            DblpConfig(
                seed=seed,
                papers_per_proceedings=DBLP_PAPERS_PER_PROCEEDINGS,
                articles_per_year=DBLP_ARTICLES_PER_YEAR,
            )
        )
    )


@dataclass(frozen=True)
class Op:
    """One HTTP request of a stream."""

    kind: str  # "read" or "write"
    method: str
    path: str
    body: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Canonical identity: equal keys must get equal answers."""
        return f"{self.method} {self.path} " + json.dumps(
            self.body, sort_keys=True
        )

    def payload(self) -> bytes:
        return json.dumps(self.body).encode("utf-8")


def _rng(seed: int, stream: str, connection: int) -> Random:
    return Random(f"perfbench:{seed}:{stream}:{connection}")


def _nearest(terms: List[str]) -> Op:
    return Op("read", "POST", "/v1/nearest",
              {"terms": terms, "limit": NEAREST_LIMIT})


def nearest_stream(seed: int, connection: int) -> Iterator[Op]:
    """2–3 distinct text terms of the random tree per request."""
    rng = _rng(seed, "nearest", connection)
    words = list(TECH_NOUNS)
    while True:
        yield _nearest(rng.sample(words, rng.choice((2, 3))))


def cached_requests(seed: int) -> List[Op]:
    """The distinct requests of the cached workload, by Zipf rank."""
    rng = _rng(seed, "cached-pool", 0)
    words = list(TECH_NOUNS)
    seen: Dict[str, Op] = {}
    while len(seen) < CACHED_DISTINCT:
        op = _nearest(sorted(rng.sample(words, rng.choice((2, 3)))))
        seen.setdefault(op.key, op)
    return list(seen.values())


def cached_stream(seed: int, connection: int) -> Iterator[Op]:
    """Zipf-skewed draws from :func:`cached_requests`."""
    pool = cached_requests(seed)
    weights = list(accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))
    ))
    rng = _rng(seed, "cached", connection)
    while True:
        yield rng.choices(pool, cum_weights=weights)[0]


def case_study_read(year: int) -> Op:
    """The §5 query: ICDE publications of one year, root excluded."""
    return Op("read", "POST", "/v1/nearest", {
        "terms": ["ICDE", str(year)],
        "exclude_root": True,
        "require_all_terms": True,
        "limit": CASE_STUDY_LIMIT,
    })


def year_query(year: int) -> Op:
    """A select over the declared year value index."""
    return Op("read", "POST", "/v1/query",
              {"text": f"select $a from # $a where $a = '{year}'"})


def inproceedings_xml(rng: Random, key: str) -> str:
    venue = rng.choice(DBLP_VENUES)
    return (
        f'<inproceedings key="conf/{venue.lower()}/{key}">'
        f"<author>{person_name(rng)}</author>"
        f"<title>{paper_title(rng, words=rng.randint(4, 7))}</title>"
        f"<booktitle>{venue}</booktitle>"
        f"<year>{rng.choice(DBLP_YEARS)}</year>"
        "</inproceedings>"
    )


#: The read kinds of ``rw-mix``, in the order they repeat.
READ_PATTERN = (case_study_read, case_study_read, year_query)


def rw_stream(seed: int, connection: int) -> Iterator[Op]:
    """Reads with one write in :data:`WRITE_EVERY` ops.

    Reads repeat the pattern of :data:`READ_PATTERN`: two §5 nearest
    queries, then one year select.  Each kind walks a seeded shuffle
    of the years, so every run reads the same mix.  The two kinds have
    separate latency modes (warm nearest reads about 5 ms, warm
    selects about 8 ms); with an even split the median read fell in
    the gap between them and swung with every small shift of either.
    Two to one puts it inside the nearest mode.

    Writes PUT fresh seeded ``<inproceedings>`` until this connection
    has two live, then alternate a DELETE of the oldest with a PUT:
    the live size stays level, and after the first write at least one
    put document is live for the durability check.  Names carry the
    connection number, so connections never collide.
    """
    rng = _rng(seed, "rw", connection)
    decks = {kind: [] for kind in READ_PATTERN}
    outstanding: List[str] = []
    number = reads = 0
    while True:
        number += 1
        if number % WRITE_EVERY == 0:
            if len(outstanding) == 2:
                yield Op("write", "DELETE", "/v1/documents",
                         {"name": outstanding.pop(0)})
            else:
                name = f"perfbench-{connection}-{number}"
                outstanding.append(name)
                yield Op("write", "PUT", "/v1/documents", {
                    "name": name,
                    "xml": inproceedings_xml(rng, f"Bench{connection}x{number}"),
                })
            continue
        kind = READ_PATTERN[reads % len(READ_PATTERN)]
        reads += 1
        deck = decks[kind]
        if not deck:
            deck.extend(rng.sample(DBLP_YEARS, len(DBLP_YEARS)))
        yield kind(deck.pop())


STREAMS = {
    "nearest": nearest_stream,
    "cached": cached_stream,
    "rw": rw_stream,
}


def take(stream: Iterator[Op], count: int) -> List[Op]:
    return [next(stream) for _ in range(count)]
