"""Tests for the length-prefixed wire protocol: JSON and the
value-batch record."""

import io
import math
import socket
import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.service import protocol


def round_trip(payload):
    stream = io.BytesIO(protocol.encode_frame(payload))
    return protocol.read_frame(stream)


class TestEncoding:
    def test_round_trip(self):
        payload = {"op": "ingest", "values": [1.0, 2.5], "metric": "m"}
        assert round_trip(payload) == payload

    def test_canonical_bytes_ignore_key_order(self):
        a = protocol.encode_message({"b": 1, "a": 2})
        b = protocol.encode_message({"a": 2, "b": 1})
        assert a == b
        assert a == b'{"a":2,"b":1}'  # sorted keys, no whitespace

    def test_nonfinite_floats_use_sentinels_not_bare_tokens(self):
        # Bare Infinity/NaN are invalid JSON; the codec must emit the
        # documented sentinel objects instead.
        body = protocol.encode_message({"value": math.inf})
        assert body == b'{"value":{"$float":"inf"}}'
        for token in (b"Infinity", b"NaN"):
            assert token not in protocol.encode_message(
                {"a": math.inf, "b": -math.inf, "c": math.nan}
            )

    def test_nonfinite_floats_round_trip(self):
        payload = {
            "lo": -math.inf,
            "hi": math.inf,
            "values": [1.0, math.inf, [-math.inf]],
            "nested": {"deep": math.inf},
        }
        decoded = round_trip(payload)
        assert decoded["lo"] == -math.inf
        assert decoded["hi"] == math.inf
        assert decoded["values"][1] == math.inf
        assert decoded["values"][2] == [-math.inf]
        assert decoded["nested"]["deep"] == math.inf
        nan = protocol.decode_message(
            protocol.encode_message({"x": math.nan})
        )["x"]
        assert isinstance(nan, float) and math.isnan(nan)

    def test_reserved_sentinel_key_rejected_in_payloads(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"v": {"$float": "bogus"}})

    def test_unknown_sentinel_name_rejected_on_decode(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b'{"v":{"$float":"huge"}}')

    def test_unencodable_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"value": object()})

    def test_oversize_outgoing_frame_rejected(self):
        payload = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 16)}
        with pytest.raises(ProtocolError):
            protocol.encode_frame(payload)


class TestDecoding:
    def test_multiple_frames_in_one_stream(self):
        stream = io.BytesIO(
            protocol.encode_frame({"n": 1})
            + protocol.encode_frame({"n": 2})
        )
        assert protocol.read_frame(stream) == {"n": 1}
        assert protocol.read_frame(stream) == {"n": 2}
        assert protocol.read_frame(stream) is None

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b"")) is None

    def test_eof_mid_header_raises(self):
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(b"\x00\x00"))

    def test_eof_mid_body_raises(self):
        frame = protocol.encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(frame[:-2]))

    def test_oversize_incoming_length_rejected_before_read(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(header))

    def test_invalid_json_body_raises(self):
        body = b"not json"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            protocol.read_frame(stream)

    def test_non_object_body_raises(self):
        body = b"[1,2,3]"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            protocol.read_frame(stream)

    def test_invalid_utf8_body_raises(self):
        body = b"\xff\xfe{}"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            protocol.read_frame(stream)


class TestWriteFrame:
    def test_write_then_read(self):
        stream = io.BytesIO()
        protocol.write_frame(stream, {"op": "ping"})
        stream.seek(0)
        assert protocol.read_frame(stream) == {"op": "ping"}


class TestResponseConstructors:
    def test_ok(self):
        assert protocol.ok(count=3) == {"ok": True, "count": 3}

    def test_error(self):
        response = protocol.error("bad_request", "nope", hint="x")
        assert response == {
            "ok": False,
            "error": "bad_request",
            "message": "nope",
            "hint": "x",
        }

    def test_shed_is_machine_detectable(self):
        response = protocol.shed("queue full")
        assert response["error"] == protocol.OVERLOADED
        assert response["shed"] is True
        assert response["ok"] is False


class TestIdentityOps:
    """``ping``/``node_info`` over a live server: the ops every
    cluster health check and anti-entropy round lead with."""

    @pytest.fixture()
    def server(self):
        from repro.service import ManualClock, MetricRegistry, QuantileServer

        registry = MetricRegistry(clock=ManualClock(0.0))
        with QuantileServer(registry, node_id="proto-test") as srv:
            yield srv

    @pytest.fixture()
    def client(self, server):
        from repro.service import QuantileClient

        host, port = server.address
        with QuantileClient(host, port, retries=0) as cli:
            yield cli

    def test_ping_answers_pong(self, client):
        assert client.call({"op": "ping"}) == {"ok": True, "pong": True}

    def test_node_info_reports_identity_and_frontier(self, client):
        info = client.node_info()
        assert info == {
            "node_id": "proto-test",
            "role": "standalone",
            "wal_watermark": 0,
            "frontier": {},
        }

    def test_node_info_wire_shape_is_flat_json(self, client):
        response = client.call({"op": "node_info"})
        assert response["ok"] is True
        assert set(response) == {
            "ok", "node_id", "role", "wal_watermark", "frontier",
        }
        assert isinstance(response["wal_watermark"], int)
        assert isinstance(response["frontier"], dict)

    def test_cluster_node_info_carries_watermark_and_frontier(self):
        from repro.cluster import LocalCluster
        from repro.service import QuantileClient

        with LocalCluster(n_nodes=2) as cluster:
            with cluster.client() as via_proxy:
                via_proxy.ingest("m", [1.0, 2.0])
            leader = cluster.leader_of("m")
            host, port = cluster.node(leader).address
            with QuantileClient(
                host, port, clock=cluster.clock, retries=0
            ) as direct:
                info = direct.node_info()
            assert info["node_id"] == leader
            assert info["role"] == "leader"
            assert info["wal_watermark"] == 1
            assert info["frontier"][leader] == 1


# ----------------------------------------------------------------------
# Value-batch record
# ----------------------------------------------------------------------

#: -0.0, the smallest subnormal, a mid subnormal, ±inf, the default NaN
#: and a NaN with a payload: the record must carry all of them bit for
#: bit (a direct ``journal()`` call may write any of them to the WAL).
EDGE_BITS = np.array(
    [
        0x8000000000000000,  # -0.0
        0x0000000000000001,  # smallest subnormal
        0x000FFFFFFFFFFFFF,  # largest subnormal
        0x7FF0000000000000,  # +inf
        0xFFF0000000000000,  # -inf
        0x7FF8000000000000,  # NaN
        0x7FF800000000BEEF,  # NaN with a payload
        0x3FF8000000000000,  # 1.5
    ],
    dtype=np.uint64,
)
EDGE_VALUES = EDGE_BITS.view(np.float64)


def record_bits(message):
    return np.asarray(message["values"], dtype=np.float64).view(np.uint64)


def ingest_request(**fields):
    payload = {"op": "ingest", "metric": "lat", "values": EDGE_VALUES}
    payload.update(fields)
    return payload


class TestValueBatchRecord:
    def test_ingest_request_packs_as_a_record(self):
        body = protocol.encode_message(ingest_request())
        assert body[0] == protocol.INGEST_RECORD
        header = len(body) - 8 * EDGE_VALUES.size
        assert header == 28 + len(b"lat")

    def test_values_round_trip_bit_for_bit(self):
        decoded = protocol.decode_message(
            protocol.encode_message(ingest_request())
        )
        assert isinstance(decoded["values"], list)
        assert all(type(value) is float for value in decoded["values"])
        assert np.array_equal(record_bits(decoded), EDGE_BITS)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"tags": {"svc": "api", "zone": "eu"}},
            {"tags": {}},
            {"timestamp_ms": 0.0},
            {"timestamp_ms": 1_234.5, "tags": {"k": "v"}},
            {"metric": "latência.µs/请求"},
            {"tags": {"région": "île-de-france"}},
            {"tags": {"n": 1, "hi": math.inf}},
        ],
    )
    def test_ingest_request_round_trip(self, fields):
        payload = ingest_request(**fields)
        body = protocol.encode_message(payload)
        assert body[0] == protocol.INGEST_RECORD
        decoded = protocol.decode_message(body)
        assert set(decoded) == set(payload)
        for key in set(payload) - {"values"}:
            assert decoded[key] == payload[key]
            assert type(decoded[key]) is type(payload[key])
        assert np.array_equal(record_bits(decoded), EDGE_BITS)

    def test_absent_timestamp_differs_from_zero(self):
        absent = protocol.decode_message(
            protocol.encode_message(ingest_request())
        )
        zero = protocol.decode_message(
            protocol.encode_message(ingest_request(timestamp_ms=0.0))
        )
        assert "timestamp_ms" not in absent
        assert zero["timestamp_ms"] == 0.0

    @pytest.mark.parametrize("tags", [None, {"svc": "api"}])
    @pytest.mark.parametrize("ts", [None, 0.0, -1.5, 7e12])
    def test_journal_record_round_trip(self, tags, ts):
        payload = {
            "metric": "lat", "tags": tags, "values": EDGE_VALUES,
            "ts": ts, "now": 5_000.0,
        }
        body = protocol.encode_message(payload)
        assert body[0] == protocol.JOURNAL_RECORD
        decoded = protocol.decode_message(body)
        assert set(decoded) == set(payload)
        assert decoded["tags"] == tags
        assert decoded["ts"] == ts
        assert decoded["now"] == 5_000.0
        assert np.array_equal(record_bits(decoded), EDGE_BITS)

    def test_record_decodes_like_the_json_form(self):
        values = np.array([1.0, 2.5, -3.0])
        for payload in (
            ingest_request(values=values, tags={"a": "b"}, timestamp_ms=9.0),
            {"metric": "m", "tags": None, "values": values,
             "ts": 1.0, "now": 2.0},
        ):
            as_json = dict(payload, values=values.tolist())
            json_body = protocol.encode_message(as_json)
            assert json_body.startswith(b"{")
            assert protocol.decode_message(
                protocol.encode_message(payload)
            ) == protocol.decode_message(json_body) == as_json

    @pytest.mark.parametrize(
        "payload",
        [
            ingest_request(values=[1.0, 2.0]),  # a list, not an array
            ingest_request(values=np.arange(3)),  # int64 array
            ingest_request(values=np.ones((2, 2))),  # not 1-D
            ingest_request(request_id="r-1"),  # an extra field
            ingest_request(tags=None),  # explicit null tags
            ingest_request(timestamp_ms=None),
            {"op": "quantile", "metric": "m", "values": EDGE_VALUES},
        ],
    )
    def test_other_shapes_stay_json(self, payload):
        body = protocol.encode_message(payload)
        assert body.startswith(b"{")
        decoded = protocol.decode_message(body)
        assert decoded["metric"] == payload["metric"]

    def test_frames_carry_records(self):
        stream = io.BytesIO(
            protocol.encode_frame(ingest_request())
            + protocol.encode_frame({"op": "flush"})
        )
        first = protocol.read_frame(stream)
        assert first["op"] == "ingest"
        assert np.array_equal(record_bits(first), EDGE_BITS)
        assert protocol.read_frame(stream) == {"op": "flush"}

    def test_json_body_with_leading_whitespace_is_still_json(self):
        assert protocol.decode_message(b'\n {"op":"ping"}') == {
            "op": "ping"
        }

    def test_value_batch_accepts_any_iterable(self):
        array = protocol.value_batch(float(v) for v in range(3))
        assert array.dtype == np.float64
        assert array.tolist() == [0.0, 1.0, 2.0]
        same = np.array([1.0, 2.0])
        assert np.shares_memory(protocol.value_batch(same), same)


class TestMalformedRecords:
    def body(self):
        return bytearray(protocol.encode_message(ingest_request()))

    @pytest.mark.parametrize("cut", [1, 5, 27, 30, 35])
    def test_truncated_record_raises(self, cut):
        with pytest.raises(ProtocolError):
            protocol.decode_message(bytes(self.body()[:cut]))

    def test_trailing_bytes_raise(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(bytes(self.body()) + b"\x00")

    @pytest.mark.parametrize("count", [0, 7, 9, 2**32 - 1])
    def test_count_length_mismatch_raises(self, count):
        body = self.body()
        struct.pack_into("<I", body, 18, count)
        with pytest.raises(ProtocolError):
            protocol.decode_message(bytes(body))

    @pytest.mark.parametrize("kind", [0x00, 0x03, 0x1F])
    def test_unknown_kind_byte_raises(self, kind):
        body = self.body()
        body[0] = kind
        with pytest.raises(ProtocolError, match="record kind"):
            protocol.decode_message(bytes(body))

    def test_unknown_flag_bits_raise(self):
        body = self.body()
        body[1] |= 0x80
        with pytest.raises(ProtocolError):
            protocol.decode_message(bytes(body))

    def test_undecodable_metric_raises(self):
        body = self.body()
        body[28] = 0xFF
        with pytest.raises(ProtocolError):
            protocol.decode_message(bytes(body))

    def test_server_answers_once_with_a_protocol_error(self):
        from repro.service import ManualClock, MetricRegistry, QuantileServer

        good = protocol.encode_message(ingest_request())
        truncated = good[:-3]
        registry = MetricRegistry(clock=ManualClock(0.0))
        with QuantileServer(registry) as server:
            with socket.create_connection(server.address, timeout=5) as conn:
                conn.sendall(struct.pack(">I", len(truncated)) + truncated)
                stream = conn.makefile("rb")
                response = protocol.read_frame(stream)
                assert response["ok"] is False
                assert response["error"] == "protocol"
                # The server dropped the connection after answering.
                assert protocol.read_frame(stream) is None
            assert registry.get("lat") is None
