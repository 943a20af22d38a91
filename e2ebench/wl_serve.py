"""``serve-mix``: open-loop traffic against ``repro-lid serve``.

A ``repro-lid serve --jobs 1 --mode process`` subprocess gets a fixed
offered rate from one generator that holds at most two connections.
Each request is timed from when it was due to be sent, so a stall
charges its wait to every request behind it, and the generator's own
lateness is reported as ``serve.gen_lag_p99_ms``.  The mix, drawn from
the workload seed:

* ~75% repeats of a primed hot set (campaign, deadlock and series
  manifests): response-cache hits;
* ~20% cold skeleton campaigns, each with a fresh sampling seed:
  misses that run fault planning, the batch engine and the report
  encoder on the worker (short enough, ~15 ms, that both connections
  are rarely held by misses at once; 40 ms LID smoke campaigns made
  the hits queue and the p50 swing by 2x between runs);
* ~5% pairs of identical cold manifests sent together: one executes,
  the other coalesces onto it (or hits, if it arrives after).

On a host with two or more CPUs the generator and the server's event
loop share the first CPU and the pool worker gets the second, so the OS
scheduler's placement cannot decide from run to run whether hits share
a core with misses (unpinned, the p50 moved by up to 2x between runs).

Served latency is dominated by socket round trips, wake-ups, thread
hand-offs and small disk reads, and does not track single-thread CPU
speed: divided by the reference loop it spread 0.4-0.7 across runs.
``latency_*_ref`` therefore divides by the median round trip of a fixed
stdlib HTTP server (:mod:`refserver`, which never imports ``repro``),
pinned like the generator and sampled ten times a second during the
window.  A slower hit path, HTTP layer or cache read raises the
ratio; a slower host raises both sides.
"""

import asyncio
import hashlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import closedloop
import refloop

#: Offered requests per second (pairs count as two requests): 1000 in
#: a 25 s window, so p99 has ten samples beyond it.
RATE = 40.0
CONNECTIONS = 2
#: A response slower than this, counted from its due time, is not goodput.
LIMIT_S = 0.5
#: Extra server start-ups timed for ``setup_s`` besides the main one.
EXTRA_SETUPS = 6
#: Cold manifests (beyond the hot set) re-run offline for byte identity.
OFFLINE_SAMPLE = 12
#: Seconds between reference-server round trips during the window.
HTTP_REF_PERIOD = 0.1
REF_MANIFEST = {"kind": "campaign", "topology": "feedback", "smoke": True}
#: Reference-loop readings before and after a traced window.
REF_SAMPLES = 15

HOT = (
    {"kind": "campaign", "topology": "feedback", "smoke": True},
    {"kind": "campaign", "topology": "feedback", "smoke": True,
     "format": "table"},
    {"kind": "campaign", "topology": "ring:shells=3", "smoke": True},
    {"kind": "campaign", "topology": "pipeline:stages=4",
     "engine": "skeleton", "cycles": 64, "samples": 16},
    {"kind": "deadlock", "topology": "ring:shells=4"},
    {"kind": "deadlock", "topology": "composed"},
    {"kind": "series", "which": "backpressure"},
    {"kind": "series", "which": "loop"},
)


def cold_manifest(seed):
    return {"kind": "campaign", "topology": "feedback",
            "engine": "skeleton", "cycles": 64, "samples": 16, "seed": seed}


def manifest_key(manifest):
    return json.dumps(manifest, sort_keys=True)


class Server:
    """A ``repro-lid serve`` subprocess with its own cache and ledger."""

    def __init__(self, run, label):
        self.cache_dir = os.path.join(run.path, f"{label}-cache")
        self.ledger = os.path.join(run.path, f"{label}-ledger.jsonl")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", "--jobs", "1", "--mode",
             "process", "--ledger", self.ledger, "--cache-dir",
             self.cache_dir],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self.log = []
        match = None
        while match is None:
            line = self.proc.stderr.readline()
            if not line:
                self.stop()
                raise RuntimeError("server exited before listening: "
                                   + "".join(self.log))
            self.log.append(line)
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        self.port = int(match.group(1))
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()

    def _read_log(self):
        for line in self.proc.stderr:
            self.log.append(line)

    def call(self, method, path, body=None):
        """One blocking request; returns ``(status, headers, body)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            data = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return (response.status, dict(response.getheaders()),
                    response.read())
        finally:
            conn.close()

    def post_ok(self, manifest):
        status, _headers, body = self.call("POST", "/v1/run", manifest)
        if status != 200:
            raise RuntimeError(f"{manifest}: HTTP {status}: {body[:200]!r}")
        return body

    def stats(self):
        return json.loads(self.call("GET", "/v1/stats")[2])["serve"]

    def ledger_records(self):
        if not os.path.exists(self.ledger):
            return []
        with open(self.ledger, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def children(self):
        """Pids of the server's pool workers."""
        try:
            with open(f"/proc/{self.proc.pid}/task/{self.proc.pid}/"
                      f"children", encoding="ascii") as fh:
                return [int(p) for p in fh.read().split()]
        except OSError:
            return []

    def peak_rss_mb(self):
        """Peak resident memory of the server and its pool workers."""
        total_kb = 0
        for pid in [self.proc.pid] + self.children():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self):
        stop_group(self.proc)
        self.proc.stderr.close()


def stop_group(proc):
    """Stop *proc*, then reap its whole process group.

    SIGINT first: the server then shuts its pool down and reaps its
    worker.  A shell that starts a job in the background makes it ignore
    SIGINT, and children inherit that, so SIGTERM follows if it has not
    exited; its killed worker then lingers until the system reaps it.
    """
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=0.5)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)


class RefServer:
    """The :mod:`refserver` yardstick in a subprocess."""

    def __init__(self, run):
        directory = os.path.join(run.path, "refserver")
        os.makedirs(directory)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "refserver.py"), directory],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError("reference server did not start")
        self.port = int(line.split()[-1])

    def stop(self):
        stop_group(self.proc)
        self.proc.stdout.close()


def schedule(seed, seconds):
    """``[(due_s, manifest), ...]`` for the window, from *seed*."""
    rng = random.Random(seed)
    items = []
    fresh = 1_000_000 + (seed % 1000) * 10_000
    slots = int(RATE * seconds)
    due = 0.0
    while len(items) < slots:
        draw = rng.random()
        if draw < 0.75:
            items.append((due, rng.choice(HOT)))
        else:
            fresh += 1
            items.append((due, cold_manifest(fresh)))
            if draw >= 0.95:
                items.append((due, cold_manifest(fresh)))
        due = len(items) / RATE
    return items


async def _post(port, manifest):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(manifest).encode()
        writer.write(
            b"POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            + f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _sep, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


async def _generate(port, items, tracer, ref_port):
    """Send *items* on schedule; return one record per request and the
    reference-server round trips (ms) timed meanwhile.

    Every ``HTTP_REF_PERIOD`` seconds one request goes to the reference
    server at *ref_port*, on its own connection, so its readings share
    the window's host conditions.

    With a *tracer*, odd requests record spans: ``op`` from due time to
    response, with children ``serve.queue`` (waiting for the generator
    and a free connection) and ``serve.<hit|miss|coalesced>``.
    """
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNECTIONS)
    origin = loop.time() + 0.05
    records = [None] * len(items)

    async def one(index, due, manifest):
        async with slots:
            sent = loop.time()
            try:
                status, headers, body = await _post(port, manifest)
            except OSError as exc:
                status, headers, body = 0, {}, repr(exc).encode()
            done = loop.time()
        sent, done = sent - origin, done - origin
        source = headers.get("x-repro-cache", "")
        if tracer is not None and index % 2:
            root = tracer.record("op", due, done, op=index)
            tracer.record("serve.queue", due, sent, root, index)
            tracer.record(f"serve.{source or 'error'}", sent, done, root,
                          index)
        records[index] = {
            "due": due, "sent": sent, "done": done,
            "status": status, "source": source,
            "key": manifest_key(manifest),
            "digest": hashlib.sha256(body).hexdigest()}

    ref_ms = []
    finished = asyncio.Event()

    async def reference():
        while not finished.is_set():
            started = loop.time()
            status, _headers, _body = await _post(ref_port, REF_MANIFEST)
            if status != 200:
                raise RuntimeError(f"reference server: HTTP {status}")
            ref_ms.append((loop.time() - started) * 1000.0)
            await asyncio.sleep(HTTP_REF_PERIOD)

    tasks = []
    sampler = asyncio.create_task(reference())
    for index, (due, manifest) in enumerate(items):
        delay = origin + due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, due, manifest)))
    for task in tasks:
        await task
    finished.set()
    await sampler
    return records, ref_ms


def _start(run_dir, label):
    """Start a server and wait for its first 200 response; returns the
    server and that start-up time at nominal host speed."""
    before = refloop.reference_ms()
    server = Server(run_dir, label)
    try:
        server.post_ok(HOT[0])
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - server.started
    return server, refloop.at_nominal_speed(elapsed, before,
                                            refloop.reference_ms())


def _p50_ms(values):
    return statistics.median(values) * 1000.0 if values else 0.0


def _offline_digests(run, manifests):
    from repro.serve import execute_manifest

    cache_dir = os.path.join(run.path, "offline-cache")
    return {manifest_key(m): hashlib.sha256(
        execute_manifest(m, cache_dir=cache_dir).body).hexdigest()
        for m in manifests}


def run(args, run_dir):
    """Measure one serve-mix run; returns ``(failures, attempted,
    failed, metrics)`` like the closed-loop runner."""
    from layers import Tracer

    tracer = Tracer() if args.trace else None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})  # the server inherits it
    setups = []
    if not args.trace:
        for index in range(EXTRA_SETUPS):
            server, setup = _start(run_dir, f"probe{index}")
            server.stop()
            setups.append(setup)
    reference = RefServer(run_dir)
    try:
        server, setup = _start(run_dir, "main")
    except BaseException:
        reference.stop()
        raise
    setups.append(setup)
    try:
        if len(cpus) >= 2:
            for pid in server.children():
                os.sched_setaffinity(pid, {cpus[1]})
        for manifest in HOT[1:]:
            server.post_ok(manifest)
        for index in range(4):
            server.post_ok(cold_manifest(900_000 + index))
        refs = [refloop.reference_ms() for _ in range(REF_SAMPLES)] \
            if args.trace else []
        before = server.stats()
        ledger_before = len(server.ledger_records())
        items = schedule(args.seed, args.seconds)
        records, http_refs = asyncio.run(_generate(
            server.port, items, tracer, reference.port))
        after = server.stats()
        ledger = server.ledger_records()
        peak_rss_mb = server.peak_rss_mb()
        if args.trace:
            refs += [refloop.reference_ms() for _ in range(REF_SAMPLES)]
    finally:
        server.stop()
        reference.stop()

    # -- output checks (outside the window) ------------------------------
    failures = []
    if len(ledger) != after["executed"]:
        failures.append(f"ledger holds {len(ledger)} records but the "
                        f"server executed {after['executed']} runs")
    manifests = {manifest_key(m): m for _due, m in items}
    cold = sorted(k for k in manifests if k not in
                  {manifest_key(m) for m in HOT})
    rng = random.Random(args.seed)
    sample = list(HOT) + [manifests[k] for k in rng.sample(
        cold, min(OFFLINE_SAMPLE, len(cold)))]
    expected = _offline_digests(run_dir, sample)
    first, differing = {}, set()
    for record in records:
        first.setdefault(record["key"], record["digest"])
        want = expected.get(record["key"], first[record["key"]])
        record["ok"] = record["status"] == 200 and record["digest"] == want
        if record["status"] == 200 and record["digest"] != want:
            differing.add(record["key"])
    failures += [f"served body differs from offline execute_manifest "
                 f"or from another response for {key}"
                 for key in sorted(differing)]

    latencies = [r["done"] - r["due"] for r in records]
    http_ref_ms = statistics.median(http_refs)
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    good = sum(1 for r, latency in zip(records, latencies)
               if r["ok"] and latency <= LIMIT_S)
    metrics = {
        "goodput_per_s": good / max(r["done"] for r in records),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": closedloop.percentile(latencies, 90) * 1000.0,
        "latency_p50_ref": (statistics.median(latencies) * 1000.0
                            / http_ref_ms),
        "latency_p90_ref": (closedloop.percentile(latencies, 90) * 1000.0
                            / http_ref_ms),
        "host.http_ref_ms": http_ref_ms,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        metrics.update(_layer_metrics(args, records, before, after,
                                      ledger[ledger_before:]))
        metrics["host.ref_ms"] = statistics.median(refs)
        metrics.update(_trace_summary(tracer, records))
        tracer.write(os.path.join(os.path.dirname(os.path.abspath(
            __file__)), "traces", f"serve-mix-seed{args.seed}.jsonl"))
    else:
        metrics["setup_s"] = statistics.median(setups)
    return failures, attempted, failed, metrics


def _layer_metrics(args, records, before, after, window_ledger):
    """Per-layer readings: latency split by ``X-Repro-Cache``, tail and
    generator lag, ``/v1/stats`` deltas and ledger records."""
    per_source = {"hit": [], "miss": [], "coalesced": []}
    for record in records:
        if record["source"] in per_source:
            per_source[record["source"]].append(
                record["done"] - record["due"])
    delta = {name: after[name] - before[name] for name in after}
    latencies = [r["done"] - r["due"] for r in records]
    lags = [r["sent"] - r["due"] for r in records]
    return {
        "serve.hit_p50_ms": _p50_ms(per_source["hit"]),
        "serve.miss_p50_ms": _p50_ms(per_source["miss"]),
        "serve.coalesced_p50_ms": _p50_ms(per_source["coalesced"]),
        "serve.latency_p99_ms": closedloop.percentile(latencies, 99) * 1000,
        "serve.gen_lag_p99_ms": closedloop.percentile(lags, 99) * 1000,
        "serve.executed": delta["executed"],
        "serve.hits": delta["hits"],
        "serve.coalesced": delta["coalesced"],
        "serve.rejected": delta["rejected_rate"] + delta["rejected_queue"],
        "serve.errors": delta["errors"],
        "serve.hit_share": delta["hits"] / max(delta["requests"], 1),
        "obs.ledger_records": len(window_ledger),
        "serve.worker_busy": sum(r["meta"].get("wall_seconds", 0.0)
                                 for r in window_ledger) / args.seconds,
    }


def _trace_summary(tracer, records):
    """``trace.coverage`` over the traced requests, and ``trace.overhead``
    as traced over untraced p50 latency of cache hits."""
    per_op = tracer.self_times()
    unaccounted = sum(layers.get("op", 0.0) for layers in per_op.values())
    wall = sum(sum(layers.values()) for layers in per_op.values())
    hits = {True: [], False: []}
    for index, record in enumerate(records):
        if record["source"] == "hit":
            hits[index % 2 == 1].append(record["done"] - record["due"])
    return {"trace.coverage": 1.0 - unaccounted / wall,
            "trace.overhead": (statistics.median(hits[True])
                               / statistics.median(hits[False]))}
