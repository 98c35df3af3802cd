"""`DurabilityManager`: the service's one handle on WAL + checkpoints.

The manager owns a data directory and composes the three durability
primitives into the protocol the server relies on:

* :meth:`journal` — append one ingest operation to the WAL *before*
  the server acks it.  The record pins the resolved event timestamp
  **and** the clock reading at journal time, so replay re-makes every
  time-dependent decision (partition bucketing, late-drop, compaction)
  exactly as the live run did.
* :meth:`checkpoint_now` / :meth:`checkpoint_due` — snapshot the whole
  registry at the current WAL watermark, then truncate segments the
  checkpoint covers.  Cadence is measured on the injected
  :class:`~repro.service.clock.Clock`, so tests drive it with a
  :class:`~repro.service.clock.ManualClock` and never sleep.
* :meth:`recover` — load the newest valid checkpoint, replay the WAL
  suffix past its watermark (tolerating a torn tail), and leave the
  log open for appends.  After recovery the registry is byte-identical
  to a never-crashed registry fed the journaled prefix — the property
  ``tests/durability/test_crash_sweep.py`` sweeps.

Callers serialise :meth:`journal` against :meth:`checkpoint_now`
(the server's ingest lock does this); the WAL carries its own lock, so
nothing here corrupts under misuse, but checkpoint consistency — the
checkpoint watermark equalling the state actually captured — is only
guaranteed when appends pause and the ingest queue drains around the
snapshot, which is the server's job.

WAL record payloads are the wire protocol's value-batch record
(:mod:`repro.service.protocol`, kind ``JOURNAL_RECORD``): a packed
header with metric, tags, event timestamp and journal-time clock, then
the raw float64 values, so journaling a batch under the ingest lock is
a copy plus a CRC.  Every reader goes through
:func:`~repro.service.protocol.decode_message`, which also still reads
logs written with canonical-JSON payloads.  Values round-trip bit for
bit, non-finite ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.durability.checkpoint import Checkpointer
from repro.durability.wal import FlushPolicy, WriteAheadLog
from repro.errors import DurabilityError, ReproError
from repro.obs.telemetry import NOOP, Telemetry
from repro.service.clock import Clock, SystemClock
from repro.service.protocol import decode_message, encode_message
from repro.service.registry import MetricRegistry


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` pass did."""

    checkpoint_seq: int  # WAL watermark of the checkpoint used (0: none)
    checkpoint_stores: int  # stores restored from the checkpoint
    records_replayed: int  # WAL records applied after the watermark
    replay_rejected: int  # replayed records rejected at apply time
    torn_bytes_repaired: int  # torn-tail bytes truncated from the log
    last_seq: int  # newest durable sequence after recovery

    def as_dict(self) -> dict[str, int]:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoint_stores": self.checkpoint_stores,
            "records_replayed": self.records_replayed,
            "replay_rejected": self.replay_rejected,
            "torn_bytes_repaired": self.torn_bytes_repaired,
            "last_seq": self.last_seq,
        }


class DurabilityManager:
    """WAL + checkpointing + recovery over one data directory.

    Parameters
    ----------
    data_dir:
        Directory holding ``wal-*.log`` segments and
        ``checkpoint-*.ckpt`` files; created on first use.
    clock:
        Time source for record timestamps and checkpoint cadence.
        Inject a :class:`~repro.service.clock.ManualClock` for
        deterministic tests; defaults to the system clock.
    flush_policy:
        WAL fsync cadence (:class:`~repro.durability.wal.FlushPolicy`).
    checkpoint_interval_ms:
        Clock time between automatic checkpoints (what
        :meth:`checkpoint_due` measures); ``0`` disables cadence, so
        checkpoints happen only when forced.
    segment_max_bytes:
        WAL segment rotation threshold.
    keep_checkpoints:
        Checkpoint files retained after each write.
    telemetry:
        Observability sink shared with the WAL and checkpointer.
    fault:
        Crash-injection hook (:mod:`repro.durability.faults`).
    """

    def __init__(
        self,
        data_dir: str | Path,
        clock: Clock | None = None,
        flush_policy: FlushPolicy | None = None,
        checkpoint_interval_ms: float = 60_000.0,
        segment_max_bytes: int = 64 * 1024 * 1024,
        keep_checkpoints: int = 2,
        telemetry: Telemetry | None = None,
        fault: Callable[[str], None] | None = None,
    ) -> None:
        if checkpoint_interval_ms < 0:
            raise DurabilityError(
                f"checkpoint_interval_ms must be >= 0, got "
                f"{checkpoint_interval_ms!r}"
            )
        self.data_dir = Path(data_dir)
        self._clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.checkpoint_interval_ms = float(checkpoint_interval_ms)
        self._fault = fault if fault is not None else (lambda site: None)
        self.wal = WriteAheadLog(
            self.data_dir,
            flush_policy=flush_policy,
            segment_max_bytes=segment_max_bytes,
            telemetry=self.telemetry,
            fault=self._fault,
        )
        self.checkpointer = Checkpointer(
            self.data_dir,
            keep=keep_checkpoints,
            telemetry=self.telemetry,
            fault=self._fault,
        )
        self._last_checkpoint_ms: float | None = None
        self._last_checkpoint_seq = 0
        self._records_journaled = 0
        self._checkpoints_written = 0
        self._last_report: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, registry: MetricRegistry) -> RecoveryReport:
        """Rebuild *registry* from disk and open the WAL for appends.

        *registry* must be empty (freshly constructed with the same
        sketch factory and geometry the data dir was written with).
        """
        if not self.wal.is_open:
            self.wal.open()
        checkpoint = self.checkpointer.latest()
        checkpoint_seq = 0
        checkpoint_stores = 0
        if checkpoint is not None:
            checkpoint_stores = checkpoint.restore_into(registry)
            checkpoint_seq = checkpoint.wal_seq
        replayed = 0
        rejected = 0
        with self.telemetry.span("recovery.replay"):
            for _seq, payload in self.wal.replay(
                after_seq=checkpoint_seq
            ):
                record = decode_message(payload)
                try:
                    registry.record(
                        record["metric"],
                        record["values"],
                        record["ts"],
                        record["tags"],
                        now_ms=record["now"],
                    )
                except ReproError:
                    # The live drain path rejected this batch too (and
                    # counted it); replay must mirror that, not die.
                    rejected += 1
                replayed += 1
        self.telemetry.counter("recovery.records_replayed").inc(replayed)
        self.telemetry.counter("recovery.replay_rejected").inc(rejected)
        self._last_checkpoint_seq = checkpoint_seq
        self._last_checkpoint_ms = self._clock.now_ms()
        report = RecoveryReport(
            checkpoint_seq=checkpoint_seq,
            checkpoint_stores=checkpoint_stores,
            records_replayed=replayed,
            replay_rejected=rejected,
            torn_bytes_repaired=self.wal.torn_bytes_repaired,
            last_seq=self.wal.last_seq,
        )
        self._last_report = report
        return report

    @property
    def last_recovery(self) -> RecoveryReport | None:
        return self._last_report

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    def journal(
        self,
        metric: str,
        tags: Mapping[str, str] | None,
        values: "Sequence[float] | np.ndarray",
        timestamp_ms: float | None,
    ) -> tuple[int, float, float]:
        """Append one ingest op to the WAL; returns ``(seq, ts, now)``.

        ``ts`` is the resolved event timestamp (journal-time clock when
        the request carried none) and ``now`` the clock reading the
        apply path must use, so live application and replay make
        identical bucketing/retention decisions.
        """
        now = self._clock.now_ms()
        ts = now if timestamp_ms is None else float(timestamp_ms)
        payload = encode_message(
            {
                "metric": metric,
                "tags": dict(tags) if tags else None,
                "values": np.asarray(values, dtype=np.float64),
                "ts": ts,
                "now": now,
            }
        )
        seq = self.wal.append(payload)
        self._records_journaled += 1
        return seq, ts, now

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint_due(self) -> bool:
        """Whether the clock says a cadence checkpoint should run.

        Never due when cadence is disabled, when nothing was journaled
        since the last checkpoint, or before recovery/first use.
        """
        if self.checkpoint_interval_ms <= 0:
            return False
        if self.wal.last_seq <= self._last_checkpoint_seq:
            return False
        if self._last_checkpoint_ms is None:
            return True
        return (
            self._clock.now_ms() - self._last_checkpoint_ms
            >= self.checkpoint_interval_ms
        )

    def checkpoint_now(self, registry: MetricRegistry) -> Path:
        """Checkpoint *registry* at the current WAL watermark.

        The caller must have quiesced ingestion (no concurrent
        :meth:`journal`, apply queue drained) so the registry state
        matches ``wal.last_seq`` exactly.  Rotates the active segment
        first so truncation can reclaim it.
        """
        with self.telemetry.span("checkpoint.write"):
            watermark = self.wal.last_seq
            self.wal.rotate()
            path = self.checkpointer.write(
                registry, watermark, self._clock.now_ms()
            )
            self._fault("checkpoint.truncate")
            self.wal.truncate_upto(watermark)
        self._last_checkpoint_seq = watermark
        self._last_checkpoint_ms = self._clock.now_ms()
        self._checkpoints_written += 1
        return path

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def last_checkpoint_seq(self) -> int:
        return self._last_checkpoint_seq

    def stats(self) -> dict[str, int]:
        """Deterministic counters for the server's ``stats`` op."""
        return {
            "durability_last_seq": self.wal.last_seq,
            "durability_pending_sync": self.wal.pending_sync_records,
            "durability_checkpoint_seq": self._last_checkpoint_seq,
            "durability_records_journaled": self._records_journaled,
            "durability_checkpoints_written": self._checkpoints_written,
        }

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurabilityManager":
        self.wal.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Decode one WAL record payload (test/debug helper).
record_payload = decode_message


def read_wal_records(
    data_dir: str | Path, after_seq: int = 0
) -> "Iterator[tuple[int, dict[str, Any]]]":
    """Read-only scan of a WAL directory: yields ``(seq, record)``.

    Records come back decoded into the :meth:`DurabilityManager.journal`
    shape (``metric``/``tags``/``values``/``ts``/``now``), in sequence
    order, without opening the log for appends — replay works on a
    freshly-constructed :class:`~repro.durability.wal.WriteAheadLog`
    precisely so recorded streams can be re-read after the writing
    process is gone.  This is the what-if seam: the workload layer
    replays one recorded stream through *differently configured*
    registries (:mod:`repro.workload.whatif`), which checkpoint blobs
    cannot support (they pin the sketch config) but raw records can.
    """
    wal = WriteAheadLog(Path(data_dir))
    for seq, payload in wal.replay(after_seq=after_seq):
        yield seq, decode_message(payload)
