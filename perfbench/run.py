"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics listed in
``BENCHMARK.json``, measured with no tracing anywhere in the run.
``--trace 1`` runs the workload twice, untraced and then traced, and
prints the per-layer metrics: layer spans recorded by the benchmark's
own wrappers, the server's final telemetry snapshot, and the tracing
overhead between the two runs.  Layers the workload does not cross are
measured by a short traced probe of the other workload, so every
per-layer metric has a value.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread in this process and in the server it starts, set
# before numpy loads.  Every workload loop is single-threaded per
# connection, and an idle BLAS worker thread waking on the other vCPU
# of a two-vCPU host moved the run-to-run p50 of sketch_core by up to a
# quarter; with one thread it moved by a tenth.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

#: Set-ups per untraced run of ingest_durable, and per round of
#: sketch_core, which sets up again after every epoch.
SETUPS = {"ingest_durable": 3, "sketch_core": 3}
#: A p99 needs this many samples: ten beyond the percentile.
P99_MIN_SAMPLES = 1000
#: A p50 is the mean, over consecutive blocks of this many samples, of
#: each block's median.  A shared vCPU switches between a fast and a
#: slow level every second or so, and the median of a whole run jumps
#: from one level to the other with the share of time spent in each;
#: in eight runs of sketch_core the whole-run ingest p50 spread
#: (IQR/median) 0.16 and the block form 0.07.  64 is one sketch_core
#: epoch and one cycle of the ingest_durable read-back.
P50_BLOCK = 64
WORKLOADS = ("ingest_durable", "sketch_core")
#: The latency each workload's tracing overhead is judged on.
OVERHEAD_BASIS = {"ingest_durable": "ingest_ms", "sketch_core": "query_ms"}


def _p50(values: list[float]) -> float:
    blocks = [
        values[start:start + P50_BLOCK]
        for start in range(0, len(values) - P50_BLOCK + 1, P50_BLOCK)
    ] or [values]
    return statistics.fmean(statistics.median(block) for block in blocks)


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _workload(name: str) -> Callable[..., dict]:
    if name == "sketch_core":
        from core_workload import sketch_core

        return sketch_core
    from service_workloads import ingest_durable

    return ingest_durable


def _probe(workload: str, work: Path, seed: int, recorder: Any) -> dict:
    """A short traced run of the workload *other* than *workload*, for
    the layers *workload* does not cross: one epoch of ``sketch_core``,
    or a few seconds of ``ingest_durable`` (128 batches, 256 queries)."""
    if workload == "sketch_core":
        return _workload("ingest_durable")(
            ROOT, work, seed, 0.0, 1, recorder,
            min_samples=128, readback_queries=256,
        )
    return _workload("sketch_core")(
        ROOT, work, seed, 0.0, 1, recorder, min_queries=1
    )


def _install_tracing() -> Any:
    """One recorder over the client and the paper sketches; each
    workload's timed windows keep its spans apart from the probe's."""
    from service_workloads import install_client
    from tracing import SpanRecorder, install_core

    recorder = SpanRecorder()
    install_core(recorder)
    install_client(recorder)
    return recorder


def per_layer(workload: str, work: Path, seed: int, seconds: float,
              problems: list[str]) -> tuple[dict, dict]:
    """The untraced reference run, the traced run and the probe;
    returns the traced run's result and the per-layer values."""
    run = _workload(workload)
    reference = run(ROOT, work, seed, seconds, 1, None)
    recorder = _install_tracing()
    result = run(ROOT, work, seed, seconds, 1, recorder)
    probe = _probe(workload, work, seed, recorder)
    basis = OVERHEAD_BASIS[workload]
    problems += reference["problems"] + [
        f"probe: {problem}" for problem in probe["problems"]
    ]
    if probe["failed"]:
        problems.append(f"probe: {probe['failed']} operations failed")
    # The workload's own figures win over the probe's where both have
    # one: on ingest_durable, KLL's come from the server.
    values = dict(probe["layers"])
    values.update(
        (name, value) for name, value in result["layers"].items()
        if value is not None
    )
    values["trace.overhead_ratio"] = statistics.median(
        result[basis]
    ) / statistics.median(reference[basis])
    return result, values


def end_to_end(result: dict[str, Any], problems: list[str]) -> dict:
    for key in ("ingest_ms", "query_ms"):
        if len(result[key]) < P99_MIN_SAMPLES:
            problems.append(
                f"{key}: {len(result[key])} samples, fewer than the "
                f"{P99_MIN_SAMPLES} a p99 needs"
            )
    ingest = result["ingest_ms"] or [0.0] * 2
    query = result["query_ms"] or [0.0] * 2
    return {
        "setup_s": result["setup_s"],
        "ingest_values_per_s": result["ingest_values_per_s"],
        "ingest_p50_ms": _p50(ingest),
        "ingest_p99_ms": _p99(ingest),
        "query_p50_ms": _p50(query),
        "query_p99_ms": _p99(query),
        "op_success_ratio": 1.0 - result["failed"] / result["attempted"],
        "server_rss_mb": result["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"perfbench: no program to measure: {ROOT} lacks src/repro "
            f"or BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        problems: list[str] = []
        if args.trace == 0:
            result = _workload(args.workload)(
                ROOT, work, args.seed, args.seconds,
                SETUPS[args.workload], None,
            )
            values = end_to_end(result, problems)
            listed = spec["end_to_end"]
        else:
            result, values = per_layer(
                args.workload, work, args.seed, args.seconds, problems
            )
            listed = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    problems += result["problems"]
    problems += [
        f"{entry['name']}: not measured" for entry in listed
        if values.get(entry["name"]) is None
    ]
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = {
        entry["name"]: {"value": values.get(entry["name"]),
                        "unit": entry["unit"]}
        for entry in listed
    }
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
