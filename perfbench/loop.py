"""Closed-loop HTTP traffic: each connection sends its next request
only after the previous answer has been read in full.

Latency runs from just before the request is written to just after
the last body byte is read.  A failed op is any non-2xx status (503
sheds included), a transport error or a timeout; a failed op costs a
fresh connection, as a real client would pay.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from inputs import Op

#: Client-side bound on one request; slower answers count as failures.
REQUEST_TIMEOUT_S = 30.0
#: Header carrying the benchmark's request number to the traced server.
REQUEST_ID_HEADER = "X-Perfbench-Id"


@dataclass
class Outcome:
    op: Op
    request_id: int
    connection: int
    #: Position of the op among those this connection sent in the loop.
    sequence: int
    started: float
    latency: float
    status: Optional[int]
    ok: bool
    response_bytes: int
    body: Optional[bytes] = None
    error: Optional[str] = None


def is_success(status: Optional[int]) -> bool:
    """Only a 2xx answer succeeds; ``None`` is a transport failure."""
    return status is not None and 200 <= status < 300


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int,
                 timeout: float = REQUEST_TIMEOUT_S):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    def _conn(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def send(self, op: Op, headers: Dict[str, str]):
        """``(status or None, body bytes, error text or None)``."""
        try:
            connection = self._conn()
            connection.request(
                op.method, op.path,
                body=None if op.method == "GET" else op.payload(),
                headers={"Content-Type": "application/json", **headers},
            )
            response = connection.getresponse()
            body = response.read()
            return response.status, body, None
        except (OSError, http.client.HTTPException) as exc:
            # socket.timeout is an OSError: a timeout is a failure too.
            self.close()
            return None, b"", f"{type(exc).__name__}: {exc}"

    def get_json(self, path: str) -> Dict[str, object]:
        status, body, error = self.send(Op("read", "GET", path), {})
        if status != 200:
            raise RuntimeError(f"GET {path} failed: {status} {error or body[:200]!r}")
        return json.loads(body)


class RequestCounter:
    """Hands out request numbers across connection threads."""

    def __init__(self) -> None:
        self._next = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._next += 1
            return self._next


def run_closed_loop(
    host: str,
    port: int,
    streams: List[Iterator[Op]],
    seconds: float,
    counter: RequestCounter,
    headers: Optional[Dict[str, str]] = None,
    keep_body: Callable[[Outcome], bool] = lambda outcome: False,
) -> List[Outcome]:
    """Drive one connection per stream until ``seconds`` have passed.

    Ops started before the deadline run to completion; the caller
    divides by the span from start to the last completion.
    """
    outcomes: List[List[Outcome]] = [[] for _ in streams]
    deadline = time.perf_counter() + seconds
    failures: List[BaseException] = []

    def drive(index: int) -> None:
        client = Client(host, port)
        sink = outcomes[index]
        stream = streams[index]
        try:
            while time.perf_counter() < deadline:
                op = next(stream)
                sequence = len(sink)
                request_id = counter.next()
                sent_headers = {REQUEST_ID_HEADER: str(request_id)}
                if headers:
                    sent_headers.update(headers)
                started = time.perf_counter()
                status, body, error = client.send(op, sent_headers)
                latency = time.perf_counter() - started
                outcome = Outcome(
                    op=op, request_id=request_id, connection=index,
                    sequence=sequence, started=started, latency=latency, status=status,
                    ok=is_success(status), response_bytes=len(body),
                    error=error,
                )
                if not outcome.ok and error is None:
                    outcome.error = body[:200].decode("utf-8", "replace")
                if keep_body(outcome):
                    outcome.body = body
                sink.append(outcome)
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(index,), daemon=True)
        for index in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + REQUEST_TIMEOUT_S + 30)
        if thread.is_alive():
            raise RuntimeError("a client connection did not finish its last request")
    if failures:
        raise failures[0]
    return [outcome for sink in outcomes for outcome in sink]


def window_seconds(outcomes: List[Outcome]) -> float:
    """From the first send to the last completion."""
    if not outcomes:
        return 0.0
    first = min(o.started for o in outcomes)
    last = max(o.started + o.latency for o in outcomes)
    return last - first


def wait_until(predicate: Callable[[], bool], timeout: float,
               interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
