"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import arith
import inputs
import layers
from loop import Client, RequestCounter, is_success, run_closed_loop

HERE = Path(__file__).resolve().parent


# -- percentiles --------------------------------------------------------
@pytest.mark.parametrize("q, enough", [(99, 1000), (95, 200), (50, 20)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert arith.percentile(list(range(enough - 1)), q) is None
    values = list(range(enough))
    value = arith.percentile(values, q)
    assert value is not None
    assert sum(1 for v in values if v > value) >= arith.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert arith.percentile(values, 99) == 990.0
    assert arith.percentile(list(reversed(values)), 95) == 950.0


def test_percentile_of_nothing_is_unsupported():
    assert arith.percentile([], 50) is None
    with pytest.raises(ValueError):
        arith.percentile([1.0], 100)


# -- self time ----------------------------------------------------------
def test_self_time_subtracts_children():
    assert arith.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_never_negative():
    # Overlapping children, a child outliving its parent, and children
    # summing to more than the parent's duration.
    children = [(-5.0, 4.0), (2.0, 8.0), (3.0, 20.0), (0.0, 10.0)]
    assert arith.self_time((0.0, 10.0), children) == 0.0
    assert arith.self_time((0.0, 10.0), [(11.0, 12.0)]) == 10.0
    assert arith.covered((0.0, 10.0), [(2.0, 4.0), (3.0, 5.0)]) == 3.0


def test_layer_self_time_counts_only_the_outermost_same_name_span():
    index = layers.SpanIndex([
        {"id": 1, "name": "core.backends.meet", "start": 0.0, "end": 0.010,
         "parent": None, "request": 7},
        {"id": 2, "name": "core.backends.meet", "start": 0.001, "end": 0.009,
         "parent": 1, "request": 7},
        {"id": 3, "name": "kernels.rollup", "start": 0.002, "end": 0.004,
         "parent": 2, "request": 7},
    ])
    outer = index.named("core.backends.meet", {7})
    assert [span["id"] for span in outer] == [1]
    assert index.self_ms(index.by_id[2]) == pytest.approx(6.0)


# -- failures -----------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server contract
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        if body.get("sleep"):
            time.sleep(body["sleep"])
        status = body.get("status", 200)
        payload = b"{}"
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()


def test_only_2xx_succeeds():
    assert is_success(200) and is_success(204)
    assert not is_success(503)
    assert not is_success(404)
    assert not is_success(None)


def test_a_503_counts_as_a_failed_op(http_server):
    host, port = http_server
    ops = iter([inputs.Op("read", "POST", "/", {"status": 503})] * 1000)
    outcomes = run_closed_loop(host, port, [ops], 0.05, RequestCounter())
    assert outcomes and not any(o.ok for o in outcomes)
    assert {o.status for o in outcomes} == {503}


def test_a_timeout_counts_as_a_failed_op(http_server):
    host, port = http_server
    client = Client(host, port, timeout=0.1)
    try:
        status, body, error = client.send(
            inputs.Op("read", "POST", "/", {"sleep": 0.5}), {})
    finally:
        client.close()
    assert status is None and not is_success(status)
    assert "timed out" in error


def test_ok_ops_succeed(http_server):
    host, port = http_server
    ops = iter([inputs.Op("read", "POST", "/", {})] * 1000)
    outcomes = run_closed_loop(host, port, [ops], 0.05, RequestCounter())
    assert outcomes and all(o.ok for o in outcomes)
    assert [o.sequence for o in outcomes] == list(range(len(outcomes)))


# -- seeding ------------------------------------------------------------
STREAM_DUMP = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import inputs
seed = int(sys.argv[3])
print(json.dumps({f"{name}-{c}": [op.key for op in inputs.take(make(seed, c), 120)]
                  for name, make in sorted(inputs.STREAMS.items()) for c in (0, 1)}))
"""


def _streams(seed, hash_seed):
    """Request keys of every stream, generated in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    src = HERE.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", STREAM_DUMP, str(HERE), str(src), str(seed)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_one_seed_always_generates_identical_requests():
    first = _streams(11, hash_seed=1)
    assert first == _streams(11, hash_seed=2)
    assert first != _streams(12, hash_seed=1)
    # Connections draw independent streams.
    assert first["nearest-0"] != first["nearest-1"]


def test_rw_stream_keeps_the_live_size_level():
    ops = inputs.take(inputs.rw_stream(3, 0), 400)
    writes = [op for op in ops if op.kind == "write"]
    assert len(writes) == 400 // inputs.WRITE_EVERY
    live = set()
    for op in writes:
        if op.method == "PUT":
            live.add(op.body["name"])
        else:
            live.remove(op.body["name"])
        assert 1 <= len(live) <= 2


def test_cached_pool_fits_the_cache():
    pool = inputs.cached_requests(5)
    assert len({op.key for op in pool}) == inputs.CACHED_DISTINCT <= 1024
    drawn = {op.key for op in inputs.take(inputs.cached_stream(5, 0), 500)}
    assert drawn <= {op.key for op in pool}


# -- BENCHMARK.json -----------------------------------------------------
def test_benchmark_json_lists_what_a_run_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _what) in layers.PER_LAYER.items()
    }
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
