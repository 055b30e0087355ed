"""Run one ``repro`` CLI command with spans around each layer's calls.

Usage::

    python perfbench/tracer.py SPANS.json REPRO-ARGS...

Before handing ``REPRO-ARGS`` to ``repro.cli.main``, the launcher
replaces the public calls listed in :func:`install` with wrappers that
record one span each: name, start, end, the enclosing span, the
benchmark request number (the ``X-Perfbench-Id`` header of the HTTP
request being served) and a few counts taken from arguments and
results.  Spans stay in memory and are written to ``SPANS.json`` when
the command returns (``serve`` returns on SIGINT).  SIGUSR1 pauses
recording and SIGUSR2 resumes it; each switch is acknowledged in
``SPANS.json.state`` so the benchmark can time the same server with
recording off and on.  Nothing under ``src/`` is modified: the
wrappers are installed on the imported modules and classes only.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    def __init__(self) -> None:
        self.active = True
        self.spans: List[Tuple] = []
        self._ids = itertools.count()
        self.local = threading.local()

    def stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None,
             around: Optional[Callable] = None) -> Callable:
        """A recording stand-in for ``fn``.

        ``count(args, kwargs, result)`` returns extra span attributes;
        ``around()`` is read before and after the call and its two
        values are handed to ``count`` as ``(before, after)``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder.stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            before = around() if around is not None else None
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None
                if count is not None:
                    try:
                        if around is not None:
                            attrs = count((before, around()))
                        else:
                            attrs = count(args, kwargs, result)
                    except Exception:  # a count must never break the call
                        attrs = None
                recorder.spans.append((
                    span_id, name, start, end, parent,
                    getattr(recorder.local, "request", None), attrs,
                ))

        return wrapper

    def wrap_handler(self, fn: Callable) -> Callable:
        """``do_POST``-style methods: tag the thread with the request id."""
        traced = self.wrap("api.request", fn)
        recorder = self

        @functools.wraps(fn)
        def handler(handler_self, *args, **kwargs):
            header = handler_self.headers.get("X-Perfbench-Id")
            recorder.local.request = int(header) if header else None
            try:
                return traced(handler_self, *args, **kwargs)
            finally:
                recorder.local.request = None

        return handler

    def dump(self, path: str) -> None:
        spans = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "request": s[5], **(s[6] or {})}
            for s in list(self.spans)
        ]
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": spans}, handle)
        os.replace(tmp, path)


def _length(args, kwargs, result) -> Dict[str, int]:
    return {"count": len(result)}


def _answers(args, kwargs, result) -> Dict[str, int]:
    return {"answers": len(result)}


def _lca_pairs(args, kwargs, result) -> Dict[str, int]:
    return {"pairs": len(args[1])}


def _aux_tree(args, kwargs, result) -> Dict[str, int]:
    import numpy as np

    nodes = len(result[0])
    inputs = int(np.unique(args[1]).size)
    # One RMQ per adjacent pair of inputs, one per candidate's parent.
    return {"nodes": nodes, "pairs": max(inputs - 1, 0) + max(nodes - 1, 0)}


def _xml_bytes(args, kwargs, result) -> Dict[str, int]:
    xml = args[2] if len(args) > 2 else kwargs.get("xml", "")
    return {"bytes": len(xml.encode("utf-8"))}


def _response_bytes(args, kwargs, result) -> Dict[str, int]:
    return {"bytes": len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))}


def _index_counter(info: Callable) -> Callable:
    def read() -> Tuple[int, int]:
        snapshot = info()
        return snapshot.builds, getattr(snapshot, "patches", 0)
    return read


def _index_delta(pair) -> Dict[str, int]:
    (builds0, patches0), (builds1, patches1) = pair
    return {"built": builds1 - builds0, "patched": patches1 - patches0}


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Swap a module-level function in every ``repro`` module using it."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    import repro.cli  # noqa: F401 - loads every layer the CLI reaches
    from repro.api.database import Database
    from repro.api.server import _Handler
    from repro.core import backends, engine, lca_index
    from repro.exec import coordinator, executors
    from repro.fulltext import index as fulltext_index
    from repro.fulltext.search import SearchEngine
    from repro.monet import mutate, transform
    from repro.query import executor, planner
    from repro.snapshot import catalog, codec, deltas
    from repro.valueindex import index as value_index

    for verb in ("do_POST", "do_PUT", "do_DELETE"):
        setattr(_Handler, verb, recorder.wrap_handler(getattr(_Handler, verb)))

    def method(cls, name, span, count=None):
        setattr(cls, name, recorder.wrap(span, cls.__dict__[name], count))

    def function(module, name, span, count=None, around=None):
        original = getattr(module, name)
        _replace_everywhere(
            original, recorder.wrap(span, original, count, around)
        )

    for name in ("nearest", "query", "put", "delete", "warm_up"):
        method(Database, name, f"api.database.{name}")
    method(SearchEngine, "find", "fulltext.find", _length)
    function(fulltext_index, "get_fulltext_index", "fulltext.get_index",
             _index_delta, _index_counter(fulltext_index.fulltext_index_cache_info))
    for cls in (backends.SteeredBackend, backends.IndexedBackend,
                backends.VectorBackend):
        method(cls, "meet_tagged", "core.backends.meet", _length)
    method(backends.VectorBackend, "meet_term_hits", "core.backends.meet", _length)
    method(engine.NearestConceptEngine, "nearest_concepts",
           "core.engine.nearest_concepts", _answers)
    function(lca_index, "get_lca_index", "core.lca_index.get_index",
             _index_delta, _index_counter(lca_index.lca_index_cache_info))
    function(planner, "plan_query", "query.plan")
    method(executor.QueryProcessor, "execute", "query.execute")
    function(value_index, "get_value_index", "valueindex.get_index",
             _index_delta, _index_counter(value_index.value_index_cache_info))
    function(mutate, "put_document", "monet.put", _xml_bytes)
    function(mutate, "delete_document", "monet.delete")
    function(transform, "monet_transform", "monet.transform")
    function(deltas, "append_delta", "snapshot.append")
    method(catalog.Catalog, "build", "snapshot.build")
    function(codec, "read_snapshot", "snapshot.open")
    os.fsync = recorder.wrap("snapshot.fsync", os.fsync)
    method(coordinator.ShardedCollection, "nearest_concepts", "exec.coordinator")
    for cls in (executors.SerialExecutor, executors.ParallelExecutor):
        method(cls, "scatter", "exec.scatter", _response_bytes)

    from repro import kernels

    if kernels.available():
        from repro.kernels import lca, rollup

        method(lca.LcaKernels, "lca_many", "kernels.lca", _lca_pairs)
        method(lca.LcaKernels, "auxiliary_tree", "kernels.lca", _aux_tree)
        function(rollup, "rollup_tagged", "kernels.rollup")


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)

    def switch(active: bool) -> Callable:
        def handler(signum, frame) -> None:
            recorder.active = active
            with open(spans_path + ".state", "w") as handle:
                handle.write("on" if active else "off")
        return handler

    signal.signal(signal.SIGUSR1, switch(False))
    signal.signal(signal.SIGUSR2, switch(True))
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
