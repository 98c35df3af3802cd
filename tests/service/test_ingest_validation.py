"""One validation point per ingest: non-finite batches never get acked.

The ingest handler validates a batch with the sketches' own NaN/±inf
policy before the shed check, the journal and the ack.  A poisoned
batch must come back ``bad_request`` on both wire forms (value-batch
record and hand-written JSON), leave no WAL record behind, and change
no count once the queue has drained.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.core.registry import SKETCH_CLASSES, paper_config
from repro.durability import DurabilityManager
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
    protocol,
)

BAD_BATCHES = {
    "nan": [math.nan],
    "one-inf": [1.0, math.inf],
    "neg-inf": [-math.inf],
}

GOOD = [1.0, 2.0, 3.0]


@pytest.fixture(
    scope="module",
    params=[
        (name, durable)
        for name in sorted(SKETCH_CLASSES)
        for durable in (False, True)
    ],
    ids=lambda p: f"{p[0]}-{'durable' if p[1] else 'volatile'}",
)
def served(request, tmp_path_factory):
    name, durable = request.param
    clock = ManualClock(1_000_000.0)
    registry = MetricRegistry(
        sketch_factory=lambda: paper_config(name), clock=clock
    )
    durability = (
        DurabilityManager(tmp_path_factory.mktemp(name), clock=clock)
        if durable else None
    )
    with QuantileServer(registry, durability=durability) as server:
        with QuantileClient(*server.address, retries=0) as client:
            assert client.ingest("m", GOOD) == len(GOOD)
            client.flush()
            yield server, client


def wal_seq(server):
    durability = server.durability
    return None if durability is None else durability.wal.last_seq


@pytest.mark.parametrize("batch", sorted(BAD_BATCHES))
def test_non_finite_batch_is_rejected_before_the_ack(served, batch):
    server, client = served
    seq_before = wal_seq(server)
    count_before = client.count("m")
    values = BAD_BATCHES[batch]
    for wire_values in (np.array(values), list(values)):
        reply = client.call(
            {"op": "ingest", "metric": "m", "values": wire_values},
            check=False,
        )
        assert reply["ok"] is False
        assert reply["error"] == "bad_request"
    client.flush()
    assert wal_seq(server) == seq_before
    assert client.count("m") == count_before


def test_accepted_batches_are_applied(served):
    server, client = served
    before = client.count("m")
    batch = np.linspace(0.5, 9.5, 257)
    assert client.ingest("m", batch) == batch.size
    client.flush()
    assert client.count("m") == before + batch.size


def test_cluster_ingest_validates_before_journaling():
    with LocalCluster(n_nodes=2) as cluster:
        with cluster.client() as client:
            assert client.ingest("m", GOOD) == len(GOOD)
            leader = cluster.leader_of("m")
            seq_before = cluster.node(leader).wal_watermark()
            for values in BAD_BATCHES.values():
                reply = client.call(
                    {"op": "ingest", "metric": "m", "values": values},
                    check=False,
                )
                assert reply["error"] == "bad_request"
            assert cluster.node(leader).wal_watermark() == seq_before
            assert client.count("m") == len(GOOD)


def test_proxy_forwards_ingest_as_a_record(monkeypatch):
    with LocalCluster(n_nodes=2) as cluster:
        transport = cluster.proxy.transport
        forward = transport.request
        bodies = []

        def capture(node_id, request, check=True):
            if request.get("op") == "ingest":
                bodies.append(protocol.encode_message(request))
            return forward(node_id, request, check=check)

        monkeypatch.setattr(transport, "request", capture)
        with cluster.client() as client:
            # A hand-written JSON frame is re-packed for the node hop.
            reply = client.call(
                {"op": "ingest", "metric": "m", "values": GOOD}
            )
            assert reply["accepted"] == len(GOOD)
            assert client.count("m") == len(GOOD)
        assert [body[0] for body in bodies] == [protocol.INGEST_RECORD]
