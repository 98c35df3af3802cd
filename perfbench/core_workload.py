"""``sketch_core``: the paper's sketches in process, as in Fig 5a-c.

A Pareto(1, 1) stream (``experiments.speed.SPEED_DISTRIBUTION``) feeds
every sketch of ``PAPER_SKETCHES`` through ``update_batch`` in
4096-value chunks, round-robin over 16 partition sketches each.
One ingest op feeds a chunk to one partition of each of the five
sketches.  After each chunk, one query op merges, for each of the five
sketches, its 16 partitions into a fresh ``paper_config`` view and
asks the view for three quantiles.  No TCP, codec, WAL or store is
involved.  An op covers all five sketches so that its latency has one
mode; a percentile over ops that each served one sketch would jump
between the sketches' very different costs.

The stream is one epoch long.  Every ``EPOCH_STEPS`` chunks the
partitions start over empty, after an untimed check of each sketch's
merged view against the exact quantiles of the whole stream.  A run
ends on an epoch boundary, so every run does the same work per epoch
and its figures do not drift with how many chunks a host gets through.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

from checks import QUANTILES, check_answers
from tracing import SpanRecorder, core_layers, summarise

from repro.core.registry import PAPER_SKETCHES, paper_config
from repro.errors import ReproError
from repro.experiments.speed import SPEED_DISTRIBUTION

BATCH = 4096
PARTITIONS = 16
EPOCH_STEPS = 64
#: Query ops a run makes at least, for ten samples beyond the p99.
MIN_QUERIES = 1000


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def _fresh(seed: int) -> dict[str, list]:
    return {
        sketch: [
            paper_config(sketch, dataset="pareto", seed=seed)
            for _ in range(PARTITIONS)
        ]
        for sketch in PAPER_SKETCHES
    }


def _merged(sketch: str, parts: list, seed: int) -> Any:
    view = paper_config(sketch, dataset="pareto", seed=seed)
    for part in parts:
        if not part.is_empty:
            view.merge(part)
    return view


def _set_up(seed: int, setups: int) -> tuple[np.ndarray, dict, float]:
    """Generate the stream and build the partitions *setups* times;
    return the last stream and partitions and the median time."""
    times = []
    for _ in range(setups):
        started = time.perf_counter()
        rng = np.random.default_rng(seed)
        stream = SPEED_DISTRIBUTION.sample(EPOCH_STEPS * BATCH, rng)
        parts = _fresh(seed)
        times.append(time.perf_counter() - started)
    return stream, parts, statistics.median(times)


def sketch_core(
    root: Path,
    work: Path,
    seed: int,
    seconds: float,
    setups: int,
    recorder: SpanRecorder | None,
    min_queries: int = MIN_QUERIES,
) -> dict[str, Any]:
    """Run the workload for *seconds* and at least *min_queries* query
    ops; *root* and *work* go unused, as nothing runs outside this
    process.

    The workload is set up *setups* times before the first epoch and
    again after every epoch, untimed, to start the next one.
    ``setup_s`` is the mean over these rounds of each round's median,
    so that, like the p50s, it spans the whole run.
    """
    stream, parts, setup_s = _set_up(seed, setups)
    setup_times = [setup_s]

    ingest_ms: list[float] = []
    query_ms: list[float] = []
    update_s = 0.0
    values = 0
    attempted = 0
    problems: list[str] = []
    sizes: dict[str, list[int]] = {sketch: [] for sketch in PAPER_SKETCHES}
    totals: list[int] = []
    windows: list[tuple[int, int]] = []

    sorted_stream = np.sort(stream)

    def check() -> None:
        """Untimed: every sketch's view over the whole epoch."""
        totals.append(0)
        for sketch in PAPER_SKETCHES:
            try:
                view = _merged(sketch, parts[sketch], seed)
                answers = view.quantiles(QUANTILES)
                sizes[sketch].append(view.size_bytes())
                totals[-1] += sizes[sketch][-1]
            except ReproError as exc:
                problems.append(f"{sketch} check: {exc!r}")
                continue
            problems.extend(
                check_answers(sketch, answers, sorted_stream, "epoch")
            )

    # Each epoch runs on the next CPU in turn: on a shared host each
    # vCPU's speed drifts on its own by a fifth or more from second to
    # second, and a run that stayed on one would carry its drift.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    measured = 0.0
    step = 0
    window_start = time.perf_counter_ns()
    phase_start = time.perf_counter()
    while step % EPOCH_STEPS or not (
        measured >= seconds and len(query_ms) >= min_queries
    ):
        chunk_index = step % EPOCH_STEPS
        chunk = stream[chunk_index * BATCH:(chunk_index + 1) * BATCH]
        attempted += 1
        started = time.perf_counter()
        try:
            for sketch in PAPER_SKETCHES:
                parts[sketch][chunk_index % PARTITIONS].update_batch(chunk)
        except ReproError as exc:
            problems.append(f"{sketch} update_batch: {exc!r}")
        else:
            took = time.perf_counter() - started
            update_s += took
            values += chunk.size * len(PAPER_SKETCHES)
            ingest_ms.append(took * 1000.0)
        attempted += 1
        started = time.perf_counter()
        try:
            for sketch in PAPER_SKETCHES:
                _merged(sketch, parts[sketch], seed).quantiles(QUANTILES)
        except ReproError as exc:
            problems.append(f"{sketch} query: {exc!r}")
        else:
            query_ms.append((time.perf_counter() - started) * 1000.0)
        step += 1
        if step % EPOCH_STEPS == 0:
            measured += time.perf_counter() - phase_start
            windows.append((window_start, time.perf_counter_ns()))
            check()
            _, parts, setup_s = _set_up(seed, setups)
            setup_times.append(setup_s)
            os.sched_setaffinity(0, {cpus[len(windows) % len(cpus)]})
            window_start = time.perf_counter_ns()
            phase_start = time.perf_counter()
    os.sched_setaffinity(0, cpus)

    result: dict[str, Any] = {
        "setup_s": statistics.fmean(setup_times),
        "ingest_ms": ingest_ms,
        "query_ms": query_ms,
        "ingest_values_per_s": values / update_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": attempted - len(ingest_ms) - len(query_ms),
        "problems": problems,
        "layers": {
            "sketch_bytes": float(np.median(totals)),
            **{
                f"core.{sketch}.size_bytes": (
                    float(np.median(sizes[sketch])) if sizes[sketch] else None
                )
                for sketch in PAPER_SKETCHES
            },
        },
    }
    if recorder is not None:
        result["layers"].update(
            core_layers(summarise(recorder.spans, windows), BATCH)
        )
    return result

