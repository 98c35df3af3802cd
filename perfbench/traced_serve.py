"""Run ``python -m repro.service`` with layer spans recorded in memory.

Usage: ``python perfbench/traced_serve.py SPANS_PATH serve [flags...]``

Wraps the server-side layer boundaries (frame decode and encode,
dispatch, journal, WAL append, registry and store calls, and the paper
sketches' methods), starts the service CLI's ``main`` with the remaining
arguments, and writes the spans to *SPANS_PATH* once ``main`` returns,
after the server has stopped.  ``PYTHONPATH`` must reach the program's
``src`` directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanRecorder, install, install_core  # noqa: E402


def _ingest_values(args: tuple, kwargs: dict, result: object) -> float:
    request = args[1]
    if isinstance(request, dict) and request.get("op") == "ingest":
        return float(len(request.get("values") or ()))
    return 0.0


def _frame_op(result: object) -> str | None:
    if isinstance(result, dict):
        return str(result.get("op"))
    return None


def install_server(recorder: SpanRecorder) -> None:
    """Wrap every server-side boundary the per-layer metrics read."""
    from repro.durability import manager as durability_manager
    from repro.durability.wal import WriteAheadLog
    from repro.service import protocol
    from repro.service.registry import MetricRegistry
    from repro.service.server import QuantileServer
    from repro.service.store import TimePartitionedStore

    # The journal reaches the codec through its own import of
    # encode_message; wrap that binding apart from the wire's.
    install(
        recorder, durability_manager, "encode_message",
        "durability.journal_encode",
    )
    install(
        recorder, protocol, "decode_message", "protocol.decode",
        extra=lambda args, kwargs, result: len(args[0]),
        opens_request=_frame_op,
    )
    install(
        recorder, protocol, "encode_message", "protocol.encode",
        extra=lambda args, kwargs, result: len(result),
    )
    install(
        recorder, QuantileServer, "dispatch", "server.dispatch",
        extra=_ingest_values,
    )
    install(
        recorder, durability_manager.DurabilityManager, "journal",
        "durability.journal",
        extra=lambda args, kwargs, result: len(args[3]),
    )
    install(
        recorder, WriteAheadLog, "append", "durability.wal_append",
        extra=lambda args, kwargs, result: len(args[1]),
    )
    install(
        recorder, MetricRegistry, "record", "registry.record",
        extra=lambda args, kwargs, result: result,
    )
    install(
        recorder, TimePartitionedStore, "record_batch",
        "store.record_batch",
    )
    install(recorder, TimePartitionedStore, "merged", "store.merged")
    install_core(recorder)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install_server(recorder)
    from repro.service.cli import main as service_main

    try:
        return service_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
