"""Per-layer metrics of a traced run.

Inputs: the spans ``tracer.py`` recorded in the server and in the
snapshot build, the client's outcomes of the untraced and the traced
half of the window, and ``/v1/stats`` taken around the traced half.
Timings are self times (a span minus the part its child spans cover)
unless the name says otherwise, so the layers of one request add up
to its latency without double counting.  Values are per read request
of the traced half, except where :data:`PER_LAYER` says otherwise;
a layer a workload never reaches reports 0.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from arith import median, ratio, self_time

#: name -> (unit, what it is per)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "api.server.self_ms": ("ms", "client latency minus Database.* spans"),
    "api.admission.wait_ms": ("ms", "admission.wait span of the response trace"),
    "api.server.response_bytes": ("bytes", "response body"),
    "api.server.shed": ("count", "503 sheds per read"),
    "api.database.self_ms": ("ms", "Database.nearest/query self time"),
    "api.database.warm_up_s": ("s", "Database.warm_up at server start"),
    "core.result_cache.hit_rate": ("ratio", "hits / lookups in the traced half"),
    "fulltext.find_ms": ("ms", "SearchEngine.find"),
    "fulltext.postings": ("count", "postings found per read"),
    "fulltext.index_builds": ("count", "index builds and patches per read"),
    "fulltext.index_build_ms": ("ms", "per build or patch"),
    "core.backends.meet_ms": ("ms", "meet self time, rank keys included"),
    "kernels.lca_ms": ("ms", "LcaKernels.lca_many + auxiliary_tree"),
    "kernels.lca_pairs": ("count", "RMQ pairs per read"),
    "kernels.aux_tree_nodes": ("count", "auxiliary-tree nodes per read"),
    "kernels.rollup_ms": ("ms", "rollup_tagged self time"),
    "core.engine.self_ms": ("ms", "nearest_concepts self time"),
    "core.engine.candidates": ("count", "meets emitted per read"),
    "core.engine.answers_per_candidate": ("ratio", "answers / meets emitted"),
    "core.lca_index.builds": ("count", "LCA index builds per read"),
    "core.lca_index.build_ms": ("ms", "per build"),
    "query.plan_ms": ("ms", "plan_query"),
    "query.execute_ms": ("ms", "QueryProcessor.execute self time"),
    "query.rows_examined_per_row": ("ratio", "plan actual rows / rows returned"),
    "query.plan_cache_hit_rate": ("ratio", "plan-cache hits / lookups"),
    "valueindex.builds": ("count", "value index builds per read"),
    "valueindex.patches": ("count", "value index patches per read"),
    "valueindex.build_ms": ("ms", "per build or patch"),
    "monet.put_ms": ("ms", "put_document per PUT"),
    "monet.delete_ms": ("ms", "delete_document per DELETE"),
    "monet.transform_s": ("s", "monet_transform in the snapshot build"),
    "snapshot.append_ms": ("ms", "append_delta per write"),
    "snapshot.fsyncs_per_write": ("ratio", "os.fsync calls / writes"),
    "snapshot.bytes_per_user_byte": ("ratio", "bundle growth / XML bytes put"),
    "snapshot.build_s": ("s", "Catalog.build in the snapshot build"),
    "snapshot.open_s": ("s", "read_snapshot in the server"),
    "exec.coordinator.self_ms": ("ms", "ShardedCollection.nearest_concepts self time"),
    "exec.scatter_wait_ms": ("ms", "executor scatter"),
    "exec.shard_ms": ("ms", "slowest shard's shard[i].* spans"),
    "exec.shard_imbalance": ("ratio", "slowest / mean shard time"),
    "exec.response_bytes": ("bytes", "pickled shard responses per read"),
    "exec.retries": ("count", "scatter rounds beyond the first, per read"),
    "trace.overhead_ratio": ("ratio", "traced / untraced read p50"),
}

_SHARD_SPAN = re.compile(r"^shard\[(\d+)\]\.")


def load_spans(path: Optional[Path]) -> List[Dict[str, object]]:
    if path is None or not Path(path).exists():
        return []
    return json.loads(Path(path).read_text())["spans"]


def _interval(span) -> Tuple[float, float]:
    return float(span["start"]), float(span["end"])


def _duration(span) -> float:
    return (float(span["end"]) - float(span["start"])) * 1000.0


class SpanIndex:
    """Spans by id, with children and same-layer nesting resolved."""

    def __init__(self, spans: Iterable[Dict[str, object]]):
        self.spans = list(spans)
        self.by_id = {span["id"]: span for span in self.spans}
        self.children: Dict[int, List[Dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                self.children[span["parent"]].append(span)

    def self_ms(self, span) -> float:
        return 1000.0 * self_time(
            _interval(span),
            [_interval(child) for child in self.children[span["id"]]],
        )

    def outermost(self, span) -> bool:
        """No enclosing span of the same name (a super() call nests)."""
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return False
            parent = self.by_id.get(parent["parent"])
        return True

    def named(self, prefix: str, requests=None) -> List[Dict]:
        return [
            span for span in self.spans
            if span["name"].startswith(prefix)
            and (requests is None or span["request"] in requests)
            and self.outermost(span)
        ]


def _delta(after: Dict, before: Dict, *path: str) -> float:
    def dig(stats):
        for key in path:
            if not isinstance(stats, dict):
                return 0.0
            stats = stats.get(key)
        return float(stats or 0.0)
    return dig(after) - dig(before)


def _gauge(stats: Dict, name: str) -> float:
    samples = stats.get("metrics", {}).get(name, {}).get("samples", [])
    return sum(float(sample["value"]) for sample in samples)


def _trace_spans(outcome) -> List[Dict[str, object]]:
    body = json.loads(outcome.body)
    return body.get("stats", {}).get("trace", {}).get("spans", [])


def per_layer_metrics(*, spans, build_spans, untraced, traced, window,
                      collection: str) -> Dict[str, Tuple[float, str]]:
    index = SpanIndex(spans)
    build = SpanIndex(build_spans)
    reads = [o for o in traced if o.op.kind == "read" and o.ok]
    writes = [o for o in traced if o.op.kind == "write" and o.ok]
    read_ids = {o.request_id for o in reads}
    write_ids = {o.request_id for o in writes}
    traced_ids = {o.request_id for o in traced}
    n = len(reads)
    before, after = window["stats_before"], window["stats_after"]
    values: Dict[str, float] = {}

    def per_read(total: float) -> float:
        return ratio(total, n)

    def total_ms(prefix: str, requests=read_ids, self_only=False) -> float:
        return sum(index.self_ms(s) if self_only else _duration(s)
                   for s in index.named(prefix, requests))

    def total_attr(prefix: str, attr: str, requests=read_ids) -> float:
        return sum(float(s.get(attr, 0)) for s in index.named(prefix, requests))

    # -- api.server / api.database ------------------------------------
    database_ms: Dict[int, float] = defaultdict(float)
    for span in index.named("api.database.", read_ids):
        database_ms[span["request"]] += _duration(span)
    values["api.server.self_ms"] = per_read(sum(
        max(0.0, o.latency * 1000.0 - database_ms[o.request_id]) for o in reads
    ))
    admission = 0.0
    shard_ms, imbalance = [], []
    for o in reads:
        per_shard: Dict[int, float] = defaultdict(float)
        for entry in _trace_spans(o):
            if entry["name"] == "admission.wait":
                admission += float(entry["ms"])
            match = _SHARD_SPAN.match(str(entry["name"]))
            if match:
                per_shard[int(match.group(1))] += float(entry["ms"])
        if per_shard:
            slowest = max(per_shard.values())
            shard_ms.append(slowest)
            mean = sum(per_shard.values()) / len(per_shard)
            imbalance.append(ratio(slowest, mean))
    values["api.admission.wait_ms"] = per_read(admission)
    values["api.server.response_bytes"] = per_read(sum(o.response_bytes for o in reads))
    sheds = sum(1 for o in traced if o.status == 503)
    values["api.server.shed"] = per_read(sheds)
    values["api.database.self_ms"] = per_read(total_ms("api.database.", self_only=True))
    values["api.database.warm_up_s"] = total_ms("api.database.warm_up", None) / 1000.0

    # -- result cache --------------------------------------------------
    hits = _delta(after, before, "collections", collection, "cache", "hits")
    misses = _delta(after, before, "collections", collection, "cache", "misses")
    values["core.result_cache.hit_rate"] = ratio(hits, hits + misses)

    # -- fulltext ------------------------------------------------------
    values["fulltext.find_ms"] = per_read(total_ms("fulltext.find"))
    values["fulltext.postings"] = per_read(total_attr("fulltext.find", "count"))
    built, built_ms = _index_work(index, "fulltext.get_index", traced_ids)
    values["fulltext.index_builds"] = per_read(built)
    values["fulltext.index_build_ms"] = ratio(built_ms, built)

    # -- backends, kernels, engine -------------------------------------
    values["core.backends.meet_ms"] = per_read(
        total_ms("core.backends.meet", self_only=True))
    values["kernels.lca_ms"] = per_read(total_ms("kernels.lca"))
    values["kernels.lca_pairs"] = per_read(total_attr("kernels.lca", "pairs"))
    values["kernels.aux_tree_nodes"] = per_read(total_attr("kernels.lca", "nodes"))
    values["kernels.rollup_ms"] = per_read(total_ms("kernels.rollup", self_only=True))
    values["core.engine.self_ms"] = per_read(total_ms("core.engine.", self_only=True))
    candidates = total_attr("core.backends.meet", "count")
    values["core.engine.candidates"] = per_read(candidates)
    values["core.engine.answers_per_candidate"] = ratio(
        total_attr("core.engine.", "answers"), candidates)
    built, built_ms = _index_work(index, "core.lca_index.get_index", traced_ids)
    values["core.lca_index.builds"] = per_read(built)
    values["core.lca_index.build_ms"] = ratio(built_ms, built)

    # -- query ---------------------------------------------------------
    values["query.plan_ms"] = per_read(total_ms("query.plan"))
    values["query.execute_ms"] = per_read(total_ms("query.execute", self_only=True))
    examined = returned = 0.0
    for o in reads:
        if o.op.path != "/v1/query":
            continue
        body = json.loads(o.body)
        plan = body.get("stats", {}).get("plan")
        if plan:
            examined += sum(float(c.get("actual_rows") or 0)
                            for c in plan.get("conditions", []))
            returned += float(body.get("count", 0))
    values["query.rows_examined_per_row"] = ratio(examined, returned)
    plan_hits = _gauge(after, "repro_planner_plan_cache_hits") - _gauge(
        before, "repro_planner_plan_cache_hits")
    plan_misses = _gauge(after, "repro_planner_plan_cache_misses") - _gauge(
        before, "repro_planner_plan_cache_misses")
    values["query.plan_cache_hit_rate"] = ratio(plan_hits, plan_hits + plan_misses)

    # -- valueindex ----------------------------------------------------
    vx = [s for s in index.named("valueindex.get_index", traced_ids)]
    vx_builds = sum(float(s.get("built", 0)) for s in vx)
    vx_patches = sum(float(s.get("patched", 0)) for s in vx)
    values["valueindex.builds"] = per_read(vx_builds)
    values["valueindex.patches"] = per_read(vx_patches)
    values["valueindex.build_ms"] = ratio(
        sum(_duration(s) for s in vx if s.get("built") or s.get("patched")),
        vx_builds + vx_patches)

    # -- monet, snapshot -----------------------------------------------
    puts = index.named("monet.put", write_ids)
    deletes = index.named("monet.delete", write_ids)
    values["monet.put_ms"] = ratio(sum(map(_duration, puts)), len(puts))
    values["monet.delete_ms"] = ratio(sum(map(_duration, deletes)), len(deletes))
    values["monet.transform_s"] = sum(map(_duration, build.named("monet.transform"))) / 1000.0
    appends = index.named("snapshot.append", write_ids)
    values["snapshot.append_ms"] = ratio(sum(map(_duration, appends)), len(appends))
    fsyncs = len([s for s in index.spans
                  if s["name"] == "snapshot.fsync" and s["request"] in write_ids])
    values["snapshot.fsyncs_per_write"] = ratio(fsyncs, len(writes))
    put_bytes = sum(float(s.get("bytes", 0)) for s in puts)
    values["snapshot.bytes_per_user_byte"] = ratio(
        window["disk_after"] - window["disk_before"], put_bytes)
    values["snapshot.build_s"] = sum(map(_duration, build.named("snapshot.build"))) / 1000.0
    values["snapshot.open_s"] = sum(
        _duration(s) for s in index.named("snapshot.open") if s["request"] is None
    ) / 1000.0

    # -- exec ----------------------------------------------------------
    coordinators = index.named("exec.coordinator", read_ids)
    scatters = index.named("exec.scatter", read_ids)
    values["exec.coordinator.self_ms"] = per_read(sum(map(index.self_ms, coordinators)))
    values["exec.scatter_wait_ms"] = per_read(sum(map(_duration, scatters)))
    values["exec.shard_ms"] = ratio(sum(shard_ms), len(shard_ms))
    values["exec.shard_imbalance"] = ratio(sum(imbalance), len(imbalance))
    values["exec.response_bytes"] = per_read(
        sum(float(s.get("bytes", 0)) for s in scatters))
    respawns = _delta(after, before, "collections", collection, "executor", "respawns")
    values["exec.retries"] = per_read(
        max(0, len(scatters) - len(coordinators)) + respawns)

    untraced_p50 = median([o.latency for o in untraced
                           if o.op.kind == "read" and o.ok])
    traced_p50 = median([o.latency for o in reads])
    values["trace.overhead_ratio"] = ratio(traced_p50 or 0.0, untraced_p50 or 0.0)

    missing = set(PER_LAYER) - set(values)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}


def _index_work(index: SpanIndex, name: str, requests) -> Tuple[float, float]:
    """(builds + patches, ms spent in the calls that did them)."""
    count = duration = 0.0
    for span in index.named(name, requests):
        work = float(span.get("built", 0)) + float(span.get("patched", 0))
        if work:
            count += work
            duration += _duration(span)
    return count, duration
