"""The correctness gate: HTTP answers against an in-process reference.

The reference is a ``Database`` opened in the benchmark's own process
on the ``indexed`` backend with no result cache, over the catalog the
server serves; after ``rw-mix`` that open replays the bundle's delta
tail from disk.  Nearest answers must match in full, §4 key included
(oid, joins, spread, depth, origins, terms, tag, path); query answers
must match column for column and row for row.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.api import Database
from repro.api.envelopes import NearestRequest, QueryRequest

from inputs import Op


def open_reference(catalog: str, collection: str) -> Database:
    return Database.open(
        snapshot=collection, catalog=catalog, backend="indexed", cache=None
    )


def _comparable(path: str, envelope: Dict[str, object]) -> object:
    if path == "/v1/nearest":
        return envelope["answers"]
    return {"columns": envelope["columns"], "rows": envelope["rows"]}


def reference_answer(database: Database, op: Op) -> object:
    if op.path == "/v1/nearest":
        envelope = database.nearest(NearestRequest.from_dict(op.body))
    elif op.path == "/v1/query":
        envelope = database.query(QueryRequest.from_dict(op.body))
    else:
        raise ValueError(f"no reference for {op.method} {op.path}")
    # A JSON round trip gives the reference the wire's types.
    return _comparable(op.path, json.loads(json.dumps(envelope.to_dict())))


def served_answer(op: Op, body: bytes) -> object:
    return _comparable(op.path, json.loads(body))


def mismatches(database: Database,
               answered: Iterable[Tuple[Op, bytes]]) -> List[str]:
    """One line per answer that differs from the reference."""
    problems = []
    for op, body in answered:
        if served_answer(op, body) != reference_answer(database, op):
            problems.append(f"answer mismatch for {op.key}")
    return problems


def document_problems(database: Database, present: Iterable[str],
                      absent: Iterable[str], served: Iterable[str]) -> List[str]:
    """Acknowledged PUTs must survive a reopen and acknowledged DELETEs
    must not; the reopened copy must hold exactly the documents the
    live server lists."""
    documents = database.documents()
    problems = [f"acknowledged PUT {name} lost" for name in present
                if name not in documents]
    problems += [f"acknowledged DELETE {name} came back" for name in absent
                 if name in documents]
    served = set(served)
    if served != set(documents):
        problems.append(
            f"reopened bundle holds {len(documents)} documents, the live "
            f"server {len(served)}; differing: "
            f"{sorted(served.symmetric_difference(documents))[:5]}"
        )
    return problems
