"""One serving benchmark: seeded traffic mixes through ``repro serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload nearest-uncached --seed 1 \\
        --seconds 20 --trace 0

One run generates the workload's XML from ``--seed``, ingests it into
a fresh catalog and starts the real ``repro serve`` process (timed as
``setup_s``), drives a closed loop of seeded requests for
``--seconds``, checks the answers against an in-process reference and
prints every metric by name and unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 when every
answer was correct, 1 on a correctness mismatch and 2 when the run
could not be made (no ``src/repro`` under the working directory, a
process that failed to start).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path.cwd()
SRC = ROOT / "src"
#: Working space inside the checkout: one directory per run (removed
#: at exit) and the generated inputs, kept for later runs.
WORK = ROOT / ".perfbench"
COLLECTION = "bench"
#: Answers per connection kept for the correctness gate.
GATE_SAMPLE = 8
#: A kept answer every this many requests of a connection's stream.
GATE_STRIDE = 5
#: Read-only requests sent before timing starts.
WARM_REQUESTS = 10
#: A run that has not finished by then is abandoned (servers stopped).
RUN_LIMIT_S = 170


class RunTimeout(Exception):
    pass


def _run_timeout(signum, frame):
    raise RunTimeout(f"the run exceeded {RUN_LIMIT_S} s")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "random" or "dblp"
    stream: str  # a key of inputs.STREAMS
    connections: int
    cache: int
    shards: Optional[int] = None
    workers: int = 0
    #: Full set-ups per timed run; setup_s is their median.
    setups: int = 1


#: Why each workload exists: perfbench/README.md.  BENCHMARK.json
#: lists the two a regression check runs; the nearest-uncached and
#: nearest-cached workloads stay runnable by hand.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("nearest-uncached", "random", "nearest", connections=2,
                 cache=0),
        Workload("nearest-cached", "random", "cached", connections=2,
                 cache=1024),
        # One connection: two rebuild the LCA index twice after a write.
        Workload("rw-mix", "dblp", "rw", connections=1, cache=1024,
                 setups=2),
        Workload("nearest-sharded", "random", "nearest", connections=2,
                 cache=0, shards=2, workers=2),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_qps": "1/s",
    "read_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "disk_bytes_per_input_byte": "ratio",
}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_args(workload: Workload, xml: Path, catalog: Path) -> List[str]:
    args = ["snapshot", "build", str(xml), COLLECTION, "--catalog", str(catalog)]
    if workload.shards:
        args += ["--shards", str(workload.shards)]
    if workload.dataset == "dblp":
        args += ["--case-sensitive", "--index", "#/year"]
    return args


def serve_args(workload: Workload, catalog: Path) -> List[str]:
    args = [COLLECTION, "--catalog", str(catalog), "--cache", str(workload.cache)]
    if workload.workers:
        args += ["--workers", str(workload.workers)]
    return args


def git_record() -> Dict[str, object]:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout that is not itself a repository records no revision;
    # git is not even started, so nothing outside the checkout is read.
    revision = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if revision else None
    return {"revision": revision,
            "dirty": None if status is None else bool(status)}


def environment(workload: Workload, seed: int, stats: Dict) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    collection = stats["collections"][COLLECTION]
    return {
        "workload": workload.name,
        "seed": seed,
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": collection.get("backend"),
        "kernel_tier": collection.get("kernel_tier"),
        **git_record(),
        "src_lines": sum(
            len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
        ),
    }


def input_xml(dataset: str, seed: int) -> Path:
    """The workload's XML, generated once per seed and generator source.

    Generation is not timed, so reusing it between runs of one
    checkout only saves wall time; the key covers every file the
    generated bytes depend on, so editing a generator never reuses a
    stale document.
    """
    import hashlib

    import inputs

    digest = hashlib.sha256()
    for path in sorted([Path(inputs.__file__),
                        *(SRC / "repro" / "datasets").glob("*.py"),
                        *(SRC / "repro" / "datamodel").glob("*.py")]):
        digest.update(path.read_bytes())
    cached = WORK / "inputs" / f"{dataset}-{seed}-{digest.hexdigest()[:16]}.xml"
    if not cached.exists():
        generate = inputs.random_xml if dataset == "random" else inputs.dblp_xml
        cached.parent.mkdir(parents=True, exist_ok=True)
        partial = cached.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(generate(seed), encoding="utf-8")
        os.replace(partial, cached)
    return cached


def wait_for_state(path: Path, state: str, timeout: float = 10.0) -> None:
    from loop import wait_until

    def switched() -> bool:
        try:
            return path.read_text() == state
        except OSError:
            return False

    if not wait_until(switched, timeout, interval=0.01):
        raise RuntimeError(f"span recorder never switched {state}")


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work: Path) -> Dict[str, object]:
    import arith
    import gate
    import inputs
    import layers
    from loop import RequestCounter, run_closed_loop, window_seconds
    from procs import (Server, host_cpu_times, run_program, steal_share,
                       tree_bytes)

    xml_path = input_xml(workload.dataset, seed)
    xml_bytes = xml_path.stat().st_size
    log(f"{workload.name}: seed {seed}, {xml_bytes} XML bytes")

    build_spans = work / "build-spans.json" if trace else None
    serve_spans = work / "serve-spans.json" if trace else None
    setups = 1 if trace else workload.setups
    setup_times: List[float] = []
    server: Optional[Server] = None
    try:
        for attempt in range(setups):
            catalog = work / f"catalog{attempt}"
            started = time.perf_counter()
            run_program(build_args(workload, xml_path, catalog), SRC,
                        work / "build.log", build_spans)
            server = Server(serve_args(workload, catalog), SRC,
                            work / "serve.log", serve_spans)
            server.wait_ready()
            setup_times.append(time.perf_counter() - started)
            if attempt < setups - 1:
                server.stop()
                server = None
                shutil.rmtree(catalog)
        log(f"set-up: {', '.join(f'{t:.2f}s' for t in setup_times)}")

        admin = server.client()
        env = environment(workload, seed, admin.get_json("/v1/stats"))
        stream = inputs.STREAMS[workload.stream]
        if workload.stream == "cached":
            warm = inputs.cached_requests(seed)
        else:
            warm_stream = stream(seed, 1000)
            warm = [op for op in inputs.take(warm_stream, 2 * WARM_REQUESTS)
                    if op.kind == "read"][:WARM_REQUESTS]
        for op in warm:
            status, body, error = admin.send(op, {})
            if status != 200:
                raise RuntimeError(f"warm-up {op.key} failed: {status} {error or body[:200]!r}")

        streams = [stream(seed, c) for c in range(workload.connections)]
        counter = RequestCounter()

        def keep(outcome) -> bool:
            return outcome.ok and in_gate_sample(outcome)

        window: Dict[str, object] = {}
        cpu_before = host_cpu_times()
        if trace:
            state = Path(str(serve_spans) + ".state")
            server.signal(signal.SIGUSR1)
            wait_for_state(state, "off")
            untraced = run_closed_loop(server.host, server.port, streams,
                                       seconds / 2, counter, keep_body=keep)
            window["stats_before"] = admin.get_json("/v1/stats")
            window["disk_before"] = tree_bytes(catalog)
            server.signal(signal.SIGUSR2)
            wait_for_state(state, "on")
            traced = run_closed_loop(
                server.host, server.port, streams, seconds / 2, counter,
                headers={"X-Repro-Trace": "1"},
                keep_body=lambda o: o.ok and o.op.kind == "read",
            )
            window["stats_after"] = admin.get_json("/v1/stats")
            window["disk_after"] = tree_bytes(catalog)
            outcomes = untraced + traced
        else:
            outcomes = run_closed_loop(server.host, server.port, streams,
                                       seconds, counter, keep_body=keep)
        steal = steal_share(cpu_before, host_cpu_times())
        peak_rss_mb = server.peak_rss_mb()

        checked = time.perf_counter()
        problems = check_answers(workload, seed, outcomes, catalog, admin, gate, inputs)
        log(f"correctness gate: {len(problems['lines'])} problem(s) "
            f"in {time.perf_counter() - checked:.2f}s")
        admin.close()
        server.stop()
        server = None
        disk_ratio = tree_bytes(catalog) / xml_bytes
    finally:
        if server is not None:
            server.stop()

    attempted = len(outcomes) + problems["extra_attempted"]
    failed = sum(1 for o in outcomes if not o.ok) + problems["extra_failed"]
    for line in problems["lines"][:10]:
        log(f"INCORRECT: {line}")
    for o in [o for o in outcomes if not o.ok][:5]:
        log(f"failed op {o.op.method} {o.op.path}: {o.status} {o.error}")

    reads = [o for o in outcomes if o.op.kind == "read" and o.ok]
    writes = [o for o in outcomes if o.op.kind == "write" and o.ok]
    read_ms = [o.latency * 1000 for o in reads]
    write_ms = [o.latency * 1000 for o in writes]
    span = window_seconds(outcomes)
    info = {
        "env": env,
        "setup_times_s": setup_times,
        "reads": len(reads),
        "writes": len(writes),
        "window_s": span,
        "host_steal_share": steal,
        "error_rate": arith.ratio(failed, attempted),
        "read_p95_ms": arith.percentile(read_ms, 95),
        "read_p99_ms": arith.percentile(read_ms, 99),
        "write_p50_ms": arith.median(write_ms),
        "write_p95_ms": arith.percentile(write_ms, 95),
    }
    if trace:
        metrics = layers.per_layer_metrics(
            spans=layers.load_spans(serve_spans),
            build_spans=layers.load_spans(build_spans),
            untraced=untraced, traced=traced, window=window,
            collection=COLLECTION,
        )
    else:
        values = {
            "setup_s": arith.median(setup_times),
            "read_qps": len(reads) / span,
            "read_p50_ms": arith.median(read_ms),
            "peak_rss_mb": peak_rss_mb,
            "disk_bytes_per_input_byte": disk_ratio,
        }
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in values.items()}
    return {
        "correct": not problems["lines"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def in_gate_sample(outcome) -> bool:
    """Every GATE_STRIDE-th read of a connection, GATE_SAMPLE at most."""
    return (outcome.op.kind == "read"
            and outcome.sequence % GATE_STRIDE == 0
            and outcome.sequence < GATE_STRIDE * GATE_SAMPLE)


def check_answers(workload, seed, outcomes, catalog, admin, gate, inputs):
    """Gate the run: problem lines, plus the ops the gate itself sent
    and how many of those failed.  A timed answer that mismatches is
    marked failed in place."""
    lines: List[str] = []
    extra = 0
    if workload.stream == "rw":
        # Quiesced now: replay the bundle from disk and hold it to every
        # acknowledged write and to the live server's answers.
        live: Dict[str, bool] = {}
        for o in sorted(outcomes, key=lambda o: o.started):
            if o.op.kind == "write" and o.ok:
                live[o.op.body["name"]] = o.op.method == "PUT"
        reference = gate.open_reference(str(catalog), COLLECTION)
        try:
            lines += gate.document_problems(
                reference,
                [name for name, present in live.items() if present],
                [name for name, present in live.items() if not present],
                admin.get_json("/v1/documents")["documents"],
            )
            sample = [op for op in inputs.take(inputs.rw_stream(seed, 2000), 60)
                      if op.kind == "read"][:GATE_SAMPLE * workload.connections]
            answered = []
            for op in sample:
                extra += 1
                status, body, error = admin.send(op, {})
                if status != 200:
                    lines.append(f"{op.key}: HTTP {status} {error or ''}")
                    continue
                answered.append((op, body))
            lines += gate.mismatches(reference, answered)
        finally:
            reference.close()
        return {"lines": lines, "extra_attempted": extra,
                "extra_failed": len(lines)}
    kept = {}
    for o in outcomes:
        if o.body is not None and in_gate_sample(o) and o.op.key not in kept:
            kept[o.op.key] = o
    kept = dict(list(kept.items())[:GATE_SAMPLE * workload.connections])
    if not kept:
        lines.append("no answer was sampled for the gate")
    reference = gate.open_reference(str(catalog), COLLECTION)
    try:
        for key, o in kept.items():
            if gate.mismatches(reference, [(o.op, o.body)]):
                o.ok = False
                lines.append(f"answer mismatch for {key}")
    finally:
        reference.close()
    return {"lines": lines, "extra_attempted": 0, "extra_failed": 0}


def render(result: Dict[str, object]) -> None:
    info = result["info"]
    env = info["env"]
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {env['workload']}: {info['reads']} reads, "
          f"{info['writes']} writes in {info['window_s']:.2f} s, "
          f"set-ups {', '.join(f'{t:.3f}' for t in info['setup_times_s'])} s")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:<36} {value:>14.6g} {unit}")
    extra = [("error_rate", info["error_rate"], "ratio"),
             ("read_p95_ms", info["read_p95_ms"], "ms"),
             ("read_p99_ms", info["read_p99_ms"], "ms"),
             ("write_p50_ms", info["write_p50_ms"], "ms"),
             ("write_p95_ms", info["write_p95_ms"], "ms"),
             ("host_steal_share", info["host_steal_share"], "ratio")]
    for name, value, unit in extra:
        shown = "n/a (too few samples)" if value is None else f"{value:>14.6g} {unit}"
        print(f"  {name:<36} {shown}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Temporary files of this process and of every child stay inside
    # the checkout and go with the run's directory.
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    signal.signal(signal.SIGALRM, _run_timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    except Exception as exc:
        log(f"run failed: {type(exc).__name__}: {exc}")
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    render(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
