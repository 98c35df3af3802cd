"""Registry-driven: ``quantiles(qs)`` answers exactly like ``quantile``.

Sketches may answer a list of quantiles from one materialised view
(KLL sorts its weighted sample once for all ``qs``); the batch answer
must stay identical to asking one quantile at a time.  Checked on
merged views at mismatched compaction levels, the shape the service's
range queries build.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.registry import SKETCH_CLASSES, paper_config

QS = [0.001, 0.01, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0]

rng = np.random.default_rng(2024)
PARTS = [
    rng.uniform(40.0, 60.0, 300),
    1.0 + rng.pareto(1.0, 20_000),
    rng.uniform(1.0, 1_000.0, 4_096),
]


def merged_view(name):
    view = paper_config(name, seed=11)
    for data in PARTS:
        part = paper_config(name, seed=11)
        part.update_batch(data)
        view.merge(part)
    return view


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_quantiles_match_one_at_a_time(name):
    view = merged_view(name)
    batch = copy.deepcopy(view).quantiles(QS)
    single = copy.deepcopy(view)
    assert batch == [single.quantile(q) for q in QS]


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_quantiles_leave_the_view_unchanged(name):
    view = merged_view(name)
    first = view.quantiles(QS)
    assert view.quantiles(QS) == first
