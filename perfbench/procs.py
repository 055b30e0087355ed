"""The program under test as child processes: snapshot builds and
``repro serve``, started from the checkout's ``src/`` and always
stopped, with every descendant, before the benchmark exits.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from inputs import Op
from loop import Client, wait_until

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"

BUILD_TIMEOUT_S = 120
READY_TIMEOUT_S = 60
STOP_GRACE_S = 10

_SERVING = re.compile(r"^serving .* on http://([^:/]+):(\d+)/")
_READYZ = Op("read", "GET", "/readyz")


def program_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CATALOG", None)
    return env


def program_argv(args: Sequence[str], spans: Optional[Path]) -> List[str]:
    """``python -m repro ARGS``, or the same under the span recorder."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACER), str(spans), *args]


def run_program(args: Sequence[str], src: Path, log: Path,
                spans: Optional[Path] = None) -> None:
    """Run one CLI command to completion; raise with its log on failure."""
    with open(log, "ab") as sink:
        completed = subprocess.run(
            program_argv(args, spans), env=program_env(src),
            stdout=sink, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S,
        )
    if completed.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args[:2])} exited {completed.returncode}:\n"
            + log.read_text(errors="replace")[-2000:]
        )


def _session_members(session: int) -> List[int]:
    """Live pids whose session id is ``session`` (server and workers)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the ")" that closes comm: state ppid pgrp session ...
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` process in its own session."""

    def __init__(self, args: Sequence[str], src: Path, log: Path,
                 spans: Optional[Path] = None):
        self._log_handle = open(log, "ab")
        self.log = log
        self.process = subprocess.Popen(
            program_argv(["serve", "--port", "0", *args], spans),
            env=program_env(src), stdout=subprocess.PIPE,
            stderr=self._log_handle, start_new_session=True,
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace")
            self._log_handle.write(raw)
            match = _SERVING.match(line)
            if match and not self._announced.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._announced.set()
        self._announced.set()

    def wait_ready(self) -> None:
        """Block until the server answers ``/readyz`` with 200."""
        if not self._announced.wait(READY_TIMEOUT_S) or self.port is None:
            raise RuntimeError(
                "repro serve never announced its address:\n" + self.tail()
            )
        client = Client(self.host, self.port, timeout=5.0)
        try:
            def ready() -> bool:
                if self.process.poll() is not None:
                    raise RuntimeError("repro serve exited:\n" + self.tail())
                status, _body, _error = client.send(_READYZ, {})
                return status == 200
            if not wait_until(ready, READY_TIMEOUT_S, interval=0.01):
                raise RuntimeError("/readyz never answered 200:\n" + self.tail())
        finally:
            client.close()

    def client(self, timeout: float = 30.0) -> Client:
        return Client(self.host, self.port, timeout=timeout)

    def tail(self) -> str:
        self._log_handle.flush()
        return self.log.read_text(errors="replace")[-2000:]

    def members(self) -> List[int]:
        return _session_members(self.process.pid)

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the server and its workers."""
        return sum(_peak_rss_kb(pid) for pid in self.members()) / 1024.0

    def signal(self, signum: int) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signum)

    def stop(self) -> None:
        """SIGINT (a clean shutdown), then force; reap every member."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(STOP_GRACE_S)
        # Workers normally exit with their server; never leave one behind.
        deadline = time.monotonic() + STOP_GRACE_S
        while self.members() and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in self.members():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._reader.join(STOP_GRACE_S)
        self._log_handle.close()


def tree_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


def host_cpu_times() -> Optional[List[int]]:
    """The host-wide CPU time counters of ``/proc/stat`` (``None`` if absent)."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]],
                after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests in between.

    Not a metric of the program: it says how much of a slow window the
    machine, not the code, is to blame for.  The first eight fields
    are user, nice, system, idle, iowait, irq, softirq and steal; the
    guest fields after them are already counted in user.
    """
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None
