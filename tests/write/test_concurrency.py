"""Readers hammer the HTTP service while a writer mutates: no torn answers.

Eight reader threads loop ``POST /v1/nearest``, ``POST /v1/search`` and
``GET /v1/stats`` while one writer applies a mutation sequence.  The
write path serializes behind the database's readers–writer lock, so
every response must equal the canonical answer of *some* state in the
mutation history — the pre- or post-state of whichever mutation it
raced, never a blend.  The writer records each state's canonical
answers as it goes; readers check membership.
"""

import json
import threading
import urllib.request

from repro.api import Database, DatabaseOptions, NearestRequest, ReproServer
from repro.snapshot import Catalog

from .harness import DATASETS, write_source

READERS = 8
REQUESTS_PER_READER = 25
TERMS = ("Bit", "1999")
SEARCH_TERM = "Bit"

FRAGMENTS = DATASETS["figure1"]["fragments"]


def _canonical(db):
    """The full answer surface of the current state, as plain JSON."""
    nearest = db.nearest(
        NearestRequest(terms=TERMS, limit=10, snippets=False)
    ).answers
    search = db.search(SEARCH_TERM).answers
    return json.dumps(
        {"nearest": list(nearest), "search": list(search)}, sort_keys=True
    )


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def test_readers_never_see_torn_answers(tmp_path):
    source, _model = write_source(tmp_path, "figure1")
    catalog = Catalog(tmp_path / "catalog", create=True)
    catalog.ingest("docs", source)
    db = Database.open(
        snapshot="docs",
        options=DatabaseOptions(
            catalog=catalog.root, backend="indexed", cache=64
        ),
    )

    valid_states = {_canonical(db)}
    states_lock = threading.Lock()
    writer_done = threading.Event()
    failures = []

    mutations = [
        ("put", "doc-a", FRAGMENTS[0]),
        ("put", "doc-b", FRAGMENTS[1]),
        ("replace", "doc-a", FRAGMENTS[2]),
        ("delete", "doc-b", None),
        ("put", "doc-c", FRAGMENTS[3 % len(FRAGMENTS)]),
        ("delete", "doc-a", None),
        ("replace", "doc-c", FRAGMENTS[0]),
        ("put", "doc-d", FRAGMENTS[1]),
    ]

    def writer():
        try:
            for op, name, xml in mutations:
                if op == "put":
                    db.put(name, xml)
                elif op == "delete":
                    db.delete(name)
                else:
                    db.replace(name, xml)
                # Record the new state's canonical answers before the
                # next mutation; readers racing this capture can only
                # observe this state or an older one — both recorded.
                with states_lock:
                    valid_states.add(_canonical(db))
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(f"writer: {exc!r}")
        finally:
            writer_done.set()

    def reader(server_url, index):
        try:
            for _ in range(REQUESTS_PER_READER):
                status, body = _post(
                    f"{server_url}/v1/nearest",
                    {"terms": list(TERMS), "limit": 10},
                )
                assert status == 200
                status, search_body = _post(
                    f"{server_url}/v1/search", {"term": SEARCH_TERM}
                )
                assert status == 200
                observed = json.dumps(
                    {
                        "nearest": list(body["answers"]),
                        "search": list(search_body["answers"]),
                    },
                    sort_keys=True,
                )
                # Tiny race: nearest and search are two requests, so a
                # mutation may land between them; each half must still
                # match SOME recorded state.
                with states_lock:
                    states = set(valid_states)
                halves_ok = any(
                    json.loads(state)["nearest"] == body["answers"]
                    for state in states
                ) and any(
                    json.loads(state)["search"] == search_body["answers"]
                    for state in states
                )
                if observed not in states and not halves_ok:
                    failures.append(
                        f"reader {index}: torn answer {observed[:200]}"
                    )
                status, stats = _get(f"{server_url}/v1/stats")
                assert status == 200
                writes = stats["collections"]["docs"]["writes"]
                if not (0 <= writes["mutations"] <= len(mutations)):
                    failures.append(
                        f"reader {index}: stats out of range {writes}"
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(f"reader {index}: {exc!r}")

    server = ReproServer({"docs": db}, port=0, close_databases=True)
    with server:
        threads = [
            threading.Thread(target=reader, args=(server.url(""), index))
            for index in range(READERS)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert writer_done.is_set(), "writer never finished"

        assert not failures, failures[:5]

        # Quiesced: the final answers equal the last recorded state and
        # the counters add up exactly.
        status, stats = _get(server.url("/v1/stats"))
        writes = stats["collections"]["docs"]["writes"]
        assert writes["mutations"] == len(mutations)
        assert writes["documents"] == len(db.documents())
        status, body = _post(
            server.url("/v1/nearest"), {"terms": list(TERMS), "limit": 10}
        )
        final = _canonical(db)
        assert json.loads(final)["nearest"] == body["answers"]


def test_concurrent_first_readers_share_one_index_build():
    """After a write, four racing first readers wait for one build each."""
    from repro.core.lca_index import get_lca_index, lca_index_cache_info
    from repro.datasets import DblpConfig, dblp_document
    from repro.fulltext.index import (
        fulltext_index_cache_info,
        get_fulltext_index,
    )
    from repro.monet.mutate import put_document
    from repro.monet.transform import monet_transform

    store = monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=8, articles_per_year=4))
    )
    get_lca_index(store)
    get_fulltext_index(store)
    put_document(store, "fresh", "<article><title>Bit</title></article>")

    lca_before = lca_index_cache_info().builds
    text_before = fulltext_index_cache_info()
    start = threading.Barrier(4)
    indexes = []

    def first_reader():
        start.wait()
        indexes.append((get_lca_index(store), get_fulltext_index(store)))

    threads = [threading.Thread(target=first_reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    text_after = fulltext_index_cache_info()
    assert lca_index_cache_info().builds - lca_before == 1
    # The full-text index patches forward over the write's journal
    # record instead of rebuilding; either way, exactly once.
    assert (text_after.builds + text_after.patches) - (
        text_before.builds + text_before.patches
    ) == 1
    assert len({id(lca) for lca, _ in indexes}) == 1
    assert len({id(text) for _, text in indexes}) == 1
