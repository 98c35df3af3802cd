"""``ingest_durable``: the workload that drives the real TCP service.

The server runs as its own process, started the way a user starts it
(``python -m repro.service serve``, shipped defaults, server telemetry
on), or, for the traced run, through ``traced_serve.py`` with the same
arguments.  This process is the load generator: at most two threads,
each with its own connection and its own client ``Telemetry``.  They
run a closed loop of 4096-value batches into a server journaling every
batch to its WAL, then read the idle store back with range queries.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from checks import QUANTILES, check_answers
from core_workload import peak_rss_mb
from tracing import SpanRecorder, core_layers, install, mean, summarise

from repro.data.traffic import LatencyValues, ZipfTenants
from repro.errors import (
    ServerOverloadedError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs.telemetry import Telemetry
from repro.service import protocol
from repro.service.client import QuantileClient

HERE = Path(__file__).resolve().parent

#: The closed ingest loop goes on past ``--seconds`` until it has this
#: many samples, so a slow host still yields a p99 with at least ten
#: samples beyond it.
MIN_SAMPLES = 1100

BATCH = 4096
DURABLE_BATCHES = 256
DURABLE_TENANTS = 16
DURABLE_FLAGS = [
    "--durability", "on",
    "--flush-policy", "batch",
    "--checkpoint-interval-ms", "60000",
]
#: Read-back after the ingest phase: each query asks one tenant for
#: quantiles from one of these many seconds before the ingest began, so
#: every range holds all of the tenant's data, while a tenant's
#: consecutive queries differ in range and each merges the partitions
#: rather than returning the view cached for the previous range.
READBACK_LEADS_S = (0, 1, 2, 3)
#: The read-back lasts as long as the ingest phase, and has at least
#: this many queries.  On a shared two-vCPU host the read-back's
#: per-query cost shifts by up to half between levels that each last a
#: few seconds, so a read-back of a few seconds reads whichever level
#: it met; one as long as the ingest phase averages over several.
READBACK_QUERIES = 2200

_BANNER = re.compile(rb" on ([0-9.]+):([0-9]+) ")


class ServerProcess:
    """One ``repro.service serve`` process on an ephemeral port."""

    def __init__(
        self,
        root: Path,
        work: Path,
        flags: list[str],
        spans_path: Path | None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if spans_path is None:
            head = [sys.executable, "-m", "repro.service"]
        else:
            head = [sys.executable, str(HERE / "traced_serve.py"),
                    str(spans_path)]
        self._log_path = work / "server.log"
        self._log = open(self._log_path, "ab")
        #: When the spawn began; set-up time runs from here.
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            head + ["serve", "--port", "0", *flags],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=root,
            env=env,
        )
        try:
            self.host, self.port = self._read_banner(timeout=60.0)
            with QuantileClient(self.host, self.port, retries=0) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise

    def _read_banner(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        stdout = self.proc.stdout
        assert stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    break
                line = stdout.readline()
                if not line:
                    break
                match = _BANNER.search(line)
                if match:
                    return match.group(1).decode(), int(match.group(2))
        raise RuntimeError(
            f"server did not report its address:\n{self._log_tail()}"
        )

    def _log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_bytes()[-2000:].decode(errors="replace")

    def client(self) -> QuantileClient:
        return QuantileClient(
            self.host, self.port, timeout=60.0, telemetry=Telemetry()
        ).connect()

    def stop(self) -> tuple[float, dict]:
        """SIGINT, wait for exit; returns ``(stop_s, telemetry)``.

        ``serve`` prints its final telemetry snapshot as the last
        stdout line on the way out.
        """
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGINT)
        out, _ = self.proc.communicate(timeout=120)
        stop_s = time.perf_counter() - started
        lines = [line for line in out.splitlines() if line.strip()]
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"server exited with {self.proc.returncode} and no "
                f"snapshot:\n{self._log_tail()}"
            )
        self._log.close()
        return stop_s, json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate(timeout=60)
        self._log.close()


class Outcomes:
    """Latencies and failures of one kind of operation."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run one operation and record its latency or its error."""
        started = time.perf_counter()
        try:
            result = fn()
        except (ServerOverloadedError, ServiceUnavailableError,
                ServiceError) as exc:
            with self._lock:
                self.attempted += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        done = time.perf_counter()
        with self._lock:
            self.attempted += 1
            self.latencies_ms.append((done - started) * 1000.0)
        return result


def _tally(
    counters: dict[str, int], problems: list[str], *outcomes: Outcomes
) -> dict[str, Any]:
    """``attempted``, ``failed`` and ``problems`` over *outcomes*.

    Sheds raise, so they are among the errors; a retried request counts
    as failed even when a later attempt got through.
    """
    errors = [error for outcome in outcomes for error in outcome.errors]
    return {
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": len(errors) + counters["client.transport_retries"],
        "problems": problems + errors,
    }


def _client_counters(clients: list[QuantileClient]) -> dict[str, int]:
    """Transport retries and shed responses the clients counted."""
    totals = {"client.transport_retries": 0, "client.shed_responses": 0}
    for client in clients:
        counters = client.telemetry.snapshot()["counters"]
        for name in totals:
            totals[name] += counters.get(name, 0)
    return totals


def _freeze_inputs() -> None:
    """Keep the load generator's own garbage collector out of the
    timings: the pre-generated batches are millions of references a
    full collection would otherwise walk in the middle of a request."""
    gc.collect()
    gc.freeze()


def _run_threads(targets: list[Callable[[], None]]) -> None:
    """Run *targets* on threads of their own; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,))
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _share_one_cpu(server_pid: int, cpu: int) -> None:
    """Pin this thread and every thread of the server to *cpu*.

    The read-back is a strict request-reply loop: one side always waits
    for the other, so one CPU is enough, and each hand-over is then a
    context switch rather than the wake-up of another, idle CPU.  On a
    shared two-vCPU host, five-seed trials a few minutes apart gave a
    run-to-run spread (IQR/median) of the read-back query p99 of about
    0.6 unpinned and 0.25 pinned.  The read-back moves to the next CPU
    after every cycle of queries, because each vCPU's speed drifts on
    its own by a fifth or more from second to second.
    """
    os.sched_setaffinity(0, {cpu})
    for tid in os.listdir(f"/proc/{server_pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended after the listing


def _owners(
    tenants: ZipfTenants, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The tenant of each of *n* batches, in an order *rng* shuffles.

    Each tenant gets its Zipf share of the batches, rounded by largest
    remainder.  Drawing every batch's tenant at random instead would let
    the seed move how much data each tenant holds, and with it what the
    read-back's queries cost, on top of the host's own noise.
    """
    exact = np.array([tenants.share(i) for i in range(tenants.n_tenants)])
    exact *= n
    counts = np.floor(exact).astype(int)
    counts[np.argsort(counts - exact)[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(tenants.n_tenants), counts))


def install_client(recorder: SpanRecorder) -> None:
    """Trace the client's ops and its side of the codec."""
    install(recorder, QuantileClient, "ingest", "client.ingest",
            tag="ingest")
    install(recorder, QuantileClient, "quantiles", "client.quantiles",
            tag="query")
    install(recorder, protocol, "encode_frame", "client.encode")
    install(recorder, protocol, "decode_message", "client.decode")


def _start_servers(
    root: Path,
    work: Path,
    flags: Callable[[int], list[str]],
    setups: int,
    spans_path: Path | None,
) -> tuple[ServerProcess, list[float]]:
    """Set the server up *setups* times; keep the last one running.

    Each set-up is spawn-to-first-``ping``; the earlier servers are
    killed, so ``setup_s`` is a median over *setups*.
    """
    times = []
    for index in range(setups):
        server = ServerProcess(
            root, work, flags(index),
            spans_path if index == setups - 1 else None,
        )
        times.append(time.perf_counter() - server.started)
        if index < setups - 1:
            server.kill()
    return server, times


def _harvest(snapshot: dict) -> dict[str, float | None]:
    """Per-layer figures from the server's own final telemetry."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def p50_ms(name: str) -> float | None:
        entry = histograms.get(name, {})
        return entry["p50"] / 1000.0 if "p50" in entry else None

    hits = counters.get("store.view_cache_hit", 0)
    misses = counters.get("store.view_cache_miss", 0)
    return {
        "server.drain_coalesced_ops": counters.get(
            "server.drain_coalesced_ops", 0
        ),
        "server.shed_requests": counters.get("server.shed_requests", 0),
        "server.drain_batch_p50_ms": p50_ms("span.server.drain_batch"),
        "store.view_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else None
        ),
        "durability.wal_fsyncs": histograms.get(
            "span.wal.fsync", {}
        ).get("count"),
        "durability.wal_fsync_p50_ms": p50_ms("span.wal.fsync"),
        "durability.checkpoint_write_ms": p50_ms("span.checkpoint.write"),
    }


def _layers(
    client_spans: list,
    server_spans: list,
    windows: list[tuple[int, int]],
) -> dict[str, float | None]:
    """Per-layer figures from the client and server spans that start
    inside the timed *windows*."""
    c = summarise(client_spans, windows)
    s = summarise(server_spans, windows)
    ingest_frames = s.get("protocol.decode@ingest")
    ingest_dispatch = s.get("server.dispatch@ingest")
    ingest_values = ingest_dispatch["extra"] if ingest_dispatch else 0.0
    record = s.get("registry.record")
    layers: dict[str, float | None] = {
        "client.encode_ms": mean(c.get("client.encode")),
        "client.decode_ms": mean(c.get("client.decode")),
        "protocol.decode_ms": mean(s.get("protocol.decode")),
        "protocol.encode_ms": mean(s.get("protocol.encode")),
        "protocol.frame_bytes_per_value": (
            (ingest_frames["extra"] + 4 * ingest_frames["count"])
            / ingest_values
            if ingest_frames and ingest_values else None
        ),
        "server.dispatch_ingest_ms": mean(ingest_dispatch, "self_ms"),
        "server.dispatch_query_ms": mean(
            s.get("server.dispatch@quantile"), "self_ms"
        ),
        "durability.journal_ms": mean(s.get("durability.journal")),
        "durability.journal_encode_ms": mean(
            s.get("durability.journal_encode")
        ),
        "durability.wal_append_ms": mean(s.get("durability.wal_append")),
        "registry.record_ms": mean(record),
        "registry.record_calls": record["count"] if record else 0,
        "registry.values_per_record": (
            record["extra"] / record["count"] if record else None
        ),
        "store.record_batch_ms": mean(s.get("store.record_batch")),
        "store.merged_ms": mean(s.get("store.merged")),
    }
    layers.update(core_layers(s, BATCH))
    queries = c.get("client.quantiles")
    if queries:
        n = queries["count"]
        attributed = sum(
            (entry or {"total_ms": 0.0})["total_ms"]
            for entry in (
                c.get("client.encode@query"),
                c.get("client.decode@query"),
                s.get("protocol.decode@quantile"),
                s.get("server.dispatch@quantile"),
                s.get("protocol.encode@quantile"),
            )
        )
        layers["trace.query_unattributed_ms"] = (
            queries["total_ms"] - attributed
        ) / n
    return layers


def _read_spans(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def ingest_durable(
    root: Path,
    work: Path,
    seed: int,
    seconds: float,
    setups: int,
    recorder: SpanRecorder | None,
    min_samples: int = MIN_SAMPLES,
    readback_queries: int = READBACK_QUERIES,
) -> dict[str, Any]:
    """Run the workload; it ingests for *seconds* and at least
    *min_samples* batches, then reads back for *seconds* and at least
    *readback_queries* queries, ending on a whole cycle of tenants and
    range starts."""
    rng = np.random.default_rng(seed)
    tenants = ZipfTenants(DURABLE_TENANTS, 1.1, prefix="bench.tenant")
    latency = LatencyValues()
    arrays = [latency.sample(BATCH, rng) for _ in range(DURABLE_BATCHES)]
    batches = [array.tolist() for array in arrays]
    owners = [tenants.name_of(int(i))
              for i in _owners(tenants, DURABLE_BATCHES, rng)]

    work = Path(tempfile.mkdtemp(dir=work))
    spans_path = work / "server-spans.json" if recorder else None
    server, setup_times = _start_servers(
        root, work,
        lambda index: [*DURABLE_FLAGS, "--data-dir", str(work / f"d{index}")],
        setups, spans_path,
    )
    data_dir = work / f"d{setups - 1}"
    ingests, queries, other = Outcomes(), Outcomes(), Outcomes()
    clients: list[QuantileClient] = []
    acked: dict[int, int] = {}
    next_batch = itertools.count()
    counter_lock = threading.Lock()
    problems: list[str] = []

    def loop(client: QuantileClient, deadline: float) -> None:
        while True:
            with counter_lock:
                k = next(next_batch)
                if time.perf_counter() >= deadline and k >= min_samples:
                    return
            b = k % DURABLE_BATCHES
            accepted = ingests.call(
                lambda: client.ingest(owners[b], batches[b])
            )
            if accepted is not None:
                with counter_lock:
                    acked[b] = acked.get(b, 0) + 1
                if accepted != BATCH:
                    problems.append(f"ingest accepted {accepted} of {BATCH}")

    _freeze_inputs()
    try:
        clients += [server.client() for _ in range(2)]
        started_wall_ms = time.time() * 1000.0
        started_ns = time.perf_counter_ns()
        started = time.perf_counter()
        _run_threads([
            functools.partial(loop, client, started + seconds)
            for client in clients
        ])
        flush_started = time.perf_counter()
        other.call(clients[0].flush)
        ended = time.perf_counter()
        ended_ns = time.perf_counter_ns()

        names = sorted({owners[b] for b in acked})
        readback: dict[str, set[tuple]] = {name: set() for name in names}
        cpus = os.sched_getaffinity(0)
        readback_ns = time.perf_counter_ns()
        readback_end = time.perf_counter() + seconds
        cycle = len(names) * len(READBACK_LEADS_S)
        i = 0
        while i % cycle or not (
            i >= readback_queries and time.perf_counter() >= readback_end
        ):
            if i % cycle == 0:
                _share_one_cpu(
                    server.proc.pid, sorted(cpus)[i // cycle % len(cpus)]
                )
            name = names[i % len(names)]
            lead_s = READBACK_LEADS_S[
                (i // len(names)) % len(READBACK_LEADS_S)
            ]
            t0 = started_wall_ms - lead_s * 1000.0
            answer = queries.call(
                lambda: clients[0].quantiles(name, QUANTILES, t0=t0)
            )
            if answer is not None:
                readback[name].add(tuple(answer))
            i += 1
        windows = [(started_ns, ended_ns),
                   (readback_ns, time.perf_counter_ns())]
        os.sched_setaffinity(0, cpus)
        for name in names:
            data = np.sort(np.concatenate([
                np.tile(arrays[b], times)
                for b, times in acked.items() if owners[b] == name
            ]))
            count = other.call(lambda: clients[0].count(name))
            if count != data.size:
                problems.append(
                    f"{name}: count {count} != {data.size} acked"
                )
            answers = other.call(
                lambda: clients[0].quantiles(name, QUANTILES)
            )
            if answers is None:
                continue
            problems += check_answers("kll", answers, data, name)
            # Every read-back range holds the same data as the whole
            # range, so it must merge to the same answer.
            if readback[name] - {tuple(answers)}:
                problems.append(
                    f"{name}: read-back answers {sorted(readback[name])} "
                    f"differ from the whole range's {answers}"
                )
        rss = peak_rss_mb(server.proc.pid)
        wal_bytes = sum(
            path.stat().st_size for path in data_dir.glob("wal-*.log")
        )
    except BaseException:
        server.kill()
        raise
    finally:
        for client in clients:
            client.close()
    stop_s, snapshot = server.stop()
    counters = _client_counters(clients)
    tally = _tally(counters, problems, ingests, queries, other)
    applied = sum(acked.values()) * BATCH
    result: dict[str, Any] = {
        "setup_s": statistics.median(setup_times),
        "ingest_ms": ingests.latencies_ms,
        "query_ms": queries.latencies_ms,
        "ingest_values_per_s": applied / (ended - started),
        "peak_rss_mb": rss,
        **tally,
        "layers": {
            **counters,
            "server.backlog_drain_s": ended - flush_started,
            "server.stop_s": stop_s,
            "durability.wal_bytes_per_value": (
                wal_bytes / applied if applied else None
            ),
            **_harvest(snapshot),
        },
    }
    if recorder is not None:
        assert spans_path is not None
        result["layers"].update(
            _layers(recorder.spans, _read_spans(spans_path), windows)
        )
    return result
