"""KLL Sketch — near-optimal additive rank-error quantile sketch
(Karnin, Lang, Liberty, FOCS 2016; Sec 3.1 of the paper).

The sketch is a hierarchy of *compactors*.  Items enter the compactor at
height 0 with weight 1; when a compactor fills up it is sorted, a fair
coin selects the odd- or even-indexed half, and the surviving half moves
to the next height with doubled weight.  Compactor capacities shrink
geometrically (factor ``c = 2/3``) below the top level with a floor of
two, which plays the role of the sampler in the original construction and
gives the ``O((1/eps) * sqrt(log(1/eps)))`` space bound.

Quantile queries materialise the retained (value, weight) pairs, sort
them, and select by cumulative weight — so estimates are always actual
stream values, and the sketch occasionally returns the exact quantile
(the zero-error runs visible in the paper's Fig 6).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.base import (
    QuantileSketch,
    as_float_batch,
    validate_quantile,
)
from repro.errors import IncompatibleSketchError, InvalidValueError

DEFAULT_MAX_COMPACTOR_SIZE = 350

#: Geometric decay of compactor capacities below the top level.
CAPACITY_DECAY = 2.0 / 3.0

#: Smallest compactor capacity (stands in for the KLL sampler).
MIN_CAPACITY = 2


class KLLSketch(QuantileSketch):
    """Additive rank-error sketch retaining a weighted sample.

    Parameters
    ----------
    max_compactor_size:
        Capacity ``k`` of the highest compactor; the paper's experiments
        use 350 (expected rank error 0.97%).
    seed:
        Seed for the coin flips of the compaction algorithm; pass an int
        for reproducible runs.
    """

    name = "kll"

    def __init__(
        self,
        max_compactor_size: int = DEFAULT_MAX_COMPACTOR_SIZE,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        if max_compactor_size < 8:
            raise InvalidValueError(
                f"max_compactor_size must be >= 8, got {max_compactor_size!r}"
            )
        self.max_compactor_size = int(max_compactor_size)
        self._rng = np.random.default_rng(seed)
        self._compactors: list[list[float]] = [[]]
        self._retained = 0
        self._capacities: list[int] = []
        self._capacity_cache = 0
        self._recompute_capacity()

    # ------------------------------------------------------------------
    # Capacity schedule
    # ------------------------------------------------------------------

    def _total_capacity(self) -> int:
        """Cached sum of all compactor capacities.

        Recomputed only when the hierarchy grows (the per-level
        capacities depend on the number of levels), so the hot ``update``
        path pays a constant-time comparison.
        """
        return self._capacity_cache

    def _recompute_capacity(self) -> None:
        """Refill the per-level capacity cache and its sum.

        The top compactor holds ``k`` items; each level below holds a
        ``2/3`` fraction of the level above, floored at two.  The
        schedule only changes when the hierarchy grows, so compaction
        and merging read the cache instead of redoing the power math.
        """
        top = len(self._compactors) - 1
        self._capacities = [
            max(
                math.ceil(
                    self.max_compactor_size * CAPACITY_DECAY ** (top - h)
                ),
                MIN_CAPACITY,
            )
            for h in range(len(self._compactors))
        ]
        self._capacity_cache = sum(self._capacities)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._compactors[0].append(value)
        self._retained += 1
        self._observe(value)
        if self._retained > self._capacity_cache:
            self._compress()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._observe_batch(values, checked=True)
        # The scalar path compacts only when the *total* retained count
        # exceeds the total capacity (level 0 may legally overfill in
        # between), so extending level 0 right up to that trigger and
        # then compressing once reproduces the per-item compaction
        # schedule exactly — same states at every compress point, same
        # RNG draw sequence.
        # In steady state the next compress point is only a handful of
        # values away (median chunk ~4 at 10^6+ retained histories), so
        # the loop below is hot: keep the trigger state in locals and
        # write it back only around _compress, which mutates it.
        items = values.tolist()
        total = len(items)
        level0 = self._compactors[0]
        extend = level0.extend
        capacity = self._capacity_cache
        retained = self._retained
        pos = 0
        while pos < total:
            end = pos + capacity - retained + 1
            chunk = items[pos:end] if end < total else (
                items[pos:] if pos else items
            )
            extend(chunk)
            retained += len(chunk)
            pos += len(chunk)
            if retained > capacity:
                self._retained = retained
                self._compress()
                retained = self._retained
                capacity = self._capacity_cache
                level0 = self._compactors[0]
                extend = level0.extend
        self._retained = retained

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _compress(self) -> None:
        """Compact the lowest over-full compactor (may cascade)."""
        while self._retained > self._capacity_cache:
            # Re-read per pass: a compaction may grow the hierarchy,
            # which replaces the capacity cache.
            capacities = self._capacities
            compactors = self._compactors
            for height, buffer in enumerate(compactors):
                if len(buffer) >= capacities[height]:
                    self._compact_level(height)
                    break
            else:  # no level is individually full; grow the hierarchy
                self._compact_level(len(compactors) - 1)

    def _compact_level(self, height: int) -> None:
        """Sort level *height*, promote a random half, discard the rest."""
        buffer = self._compactors[height]
        if len(buffer) < MIN_CAPACITY:
            return
        if height + 1 == len(self._compactors):
            self._compactors.append([])
            self._recompute_capacity()
        buffer.sort()
        # An odd item (if any) stays behind so the halving is unbiased.
        odd_one = buffer.pop() if len(buffer) % 2 == 1 else None
        offset = int(self._rng.integers(2))
        promoted = buffer[offset::2]
        self._compactors[height + 1].extend(promoted)
        removed = len(buffer) - len(promoted)
        buffer.clear()
        if odd_one is not None:
            buffer.append(odd_one)
        self._retained -= removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _weighted_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Retained values with their weights, sorted by value."""
        values: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for height, buffer in enumerate(self._compactors):
            if not buffer:
                continue
            arr = np.asarray(buffer, dtype=np.float64)
            values.append(arr)
            weights.append(np.full(arr.size, 1 << height, dtype=np.int64))
        all_values = np.concatenate(values)
        all_weights = np.concatenate(weights)
        order = np.argsort(all_values, kind="stable")
        return all_values[order], all_weights[order]

    def quantile(self, q: float) -> float:
        return self.quantiles([q])[0]

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Estimates for several quantiles over one sorted sample."""
        checked = [validate_quantile(q) for q in qs]
        self._require_nonempty()
        values, weights = self._weighted_samples()
        cumulative = np.cumsum(weights)
        last = values.size - 1
        out: list[float] = []
        for q in checked:
            # The q-quantile is the item of rank ceil(q * N) (Sec 2.1);
            # the retained weights sum to a value near (not exactly)
            # the stream length, so select against the retained total.
            target = math.ceil(q * cumulative[-1])
            pos = int(np.searchsorted(cumulative, target, side="left"))
            out.append(float(values[min(pos, last)]))
        return out

    def rank(self, value: float) -> int:
        self._require_nonempty()
        values, weights = self._weighted_samples()
        pos = int(np.searchsorted(values, value, side="right"))
        retained_rank = int(weights[:pos].sum())
        total_weight = int(weights.sum())
        if total_weight == 0:
            return 0
        return min(
            int(round(retained_rank * self._count / total_weight)),
            self._count,
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        if not isinstance(other, KLLSketch):
            raise IncompatibleSketchError(
                f"cannot merge KLLSketch with {type(other).__name__}"
            )
        grow = len(other._compactors) - len(self._compactors)
        if grow > 0:
            self._compactors.extend([] for _ in range(grow))
            self._recompute_capacity()
        for height, buffer in enumerate(other._compactors):
            self._compactors[height].extend(buffer)
            self._retained += len(buffer)
        self._merge_bookkeeping(other)
        # Compact any level exceeding the capacity schedule of the
        # combined sketch (k_h is based on the merged height, Sec 3.1).
        if self._retained > self._capacity_cache:
            self._compress()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_retained(self) -> int:
        """Total sample size across all compactors."""
        return self._retained

    @property
    def num_levels(self) -> int:
        return len(self._compactors)

    def expected_rank_error(self) -> float:
        """Expected additive rank error for this ``k``.

        Uses the empirical constant of the Apache DataSketches
        implementation for two-sided (PMF) queries, ``2.446 / k^0.9433``,
        which puts k = 350 at roughly 0.0097 — the 0.97% quoted in
        Sec 4.2 of the paper.
        """
        return 2.446 / self.max_compactor_size ** 0.9433

    def size_bytes(self) -> int:
        # Matches the accounting behind Table 3: the Apache KLL
        # implementation retains 4-byte float samples.
        per_level = 8  # length/capacity word per compactor
        return (
            4 * self._retained
            + per_level * len(self._compactors)
            + 4 * 8  # k, count, min, max
        )
