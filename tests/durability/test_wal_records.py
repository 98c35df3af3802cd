"""WAL record payloads: the value-batch record, and logs that predate it.

The journal writes the wire protocol's binary value-batch record.  Logs
written when WAL payloads were canonical JSON must still recover to the
same state, so the JSON records below are pinned as literal bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability.manager import DurabilityManager, read_wal_records
from repro.service import protocol
from repro.service.clock import ManualClock
from repro.service.registry import MetricRegistry

#: ``(metric, tags, values, ts, now)`` of each journaled op.
OPS = [
    ("lat", {"svc": "api"}, [1.5, 2.25, 1e-3], 1_000_000.0, 1_000_000.0),
    ("lat", {"svc": "api"}, [3.0, 0.5], 1_000_025.0, 1_000_025.0),
    ("db", None, [7.0, 8.0, 9.5, 1e6], 999_000.0, 1_000_050.0),
    ("lat", {"svc": "api"}, [4.0], 1_000_075.0, 1_000_075.0),
]

#: The same ops as the canonical-JSON WAL payloads older logs hold.
LEGACY_JSON = [
    b'{"metric":"lat","now":1000000.0,"tags":{"svc":"api"},'
    b'"ts":1000000.0,"values":[1.5,2.25,0.001]}',
    b'{"metric":"lat","now":1000025.0,"tags":{"svc":"api"},'
    b'"ts":1000025.0,"values":[3.0,0.5]}',
    b'{"metric":"db","now":1000050.0,"tags":null,'
    b'"ts":999000.0,"values":[7.0,8.0,9.5,1000000.0]}',
    b'{"metric":"lat","now":1000075.0,"tags":{"svc":"api"},'
    b'"ts":1000075.0,"values":[4.0]}',
]


def snapshot_all(registry):
    return {
        (key.name, key.tags): registry.get(
            key.name, key.as_dict()
        ).snapshot()
        for key in registry.keys()
    }


def journal_ops(data_dir, ops=OPS):
    """Journal *ops* through the manager, pinning each op's clock."""
    clock = ManualClock(0.0)
    with DurabilityManager(data_dir, clock=clock) as manager:
        for metric, tags, values, ts, now in ops:
            clock.advance(now - clock.now_ms())
            manager.journal(metric, tags, values, ts)
        manager.wal.sync()


def append_raw(data_dir, payloads):
    with DurabilityManager(data_dir) as manager:
        for payload in payloads:
            manager.wal.append(payload)
        manager.wal.sync()


def recovered(data_dir):
    clock = ManualClock(1_000_100.0)
    registry = MetricRegistry(clock=clock)
    with DurabilityManager(data_dir, clock=clock) as manager:
        report = manager.recover(registry)
    return registry, report


def applied_directly():
    registry = MetricRegistry(clock=ManualClock(1_000_100.0))
    for metric, tags, values, ts, now in OPS:
        registry.record(metric, values, ts, tags, now_ms=now)
    return registry


class TestJournalRecord:
    def test_journal_writes_value_batch_records(self, tmp_path):
        journal_ops(tmp_path)
        payloads = [
            payload for _seq, payload in
            DurabilityManager(tmp_path).wal.replay()
        ]
        assert len(payloads) == len(OPS)
        for payload, (metric, tags, values, _ts, _now) in zip(payloads, OPS):
            assert payload[0] == protocol.JOURNAL_RECORD
            tag_bytes = 0 if tags is None else len(
                b'{"svc":"api"}'
            )
            assert len(payload) == (
                28 + len(metric) + tag_bytes + 8 * len(values)
            )

    def test_records_decode_to_the_journal_shape(self, tmp_path):
        journal_ops(tmp_path)
        records = [record for _seq, record in read_wal_records(tmp_path)]
        assert records == [
            {"metric": m, "tags": t, "values": v, "ts": ts, "now": now}
            for m, t, v, ts, now in OPS
        ]

    def test_journal_keeps_every_bit(self, tmp_path):
        bits = np.array(
            [0x8000000000000000, 1, 0x7FF0000000000000,
             0xFFF0000000000000, 0x7FF800000000BEEF],
            dtype=np.uint64,
        )
        with DurabilityManager(tmp_path, clock=ManualClock(0.0)) as manager:
            manager.journal("m", None, bits.view(np.float64), None)
            manager.journal("m", None, bits.view(np.float64).tolist(), 1.0)
            manager.wal.sync()
        for _seq, record in read_wal_records(tmp_path):
            got = np.asarray(record["values"], dtype=np.float64)
            assert np.array_equal(got.view(np.uint64), bits)


class TestLegacyJsonWal:
    def test_legacy_payloads_are_what_the_json_codec_wrote(self):
        for payload, (metric, tags, values, ts, now) in zip(LEGACY_JSON, OPS):
            assert payload == protocol.encode_message(
                {"metric": metric, "tags": tags, "values": values,
                 "ts": ts, "now": now}
            )

    def test_legacy_records_read_back_like_binary_ones(self, tmp_path):
        append_raw(tmp_path / "json", LEGACY_JSON)
        journal_ops(tmp_path / "binary")
        assert list(read_wal_records(tmp_path / "json")) == list(
            read_wal_records(tmp_path / "binary")
        )

    @pytest.mark.parametrize("layout", ["json", "binary", "mixed"])
    def test_recovery_is_byte_identical(self, tmp_path, layout):
        if layout == "json":
            append_raw(tmp_path, LEGACY_JSON)
        elif layout == "binary":
            journal_ops(tmp_path)
        else:
            # A log started before the change and continued after it.
            append_raw(tmp_path, LEGACY_JSON[:2])
            journal_ops(tmp_path, OPS[2:])
        registry, report = recovered(tmp_path)
        assert report.records_replayed == len(OPS)
        assert report.replay_rejected == 0
        assert snapshot_all(registry) == snapshot_all(applied_directly())
