"""Answer checks against exact quantiles computed with numpy.

Each paper sketch is held to the accuracy its documentation claims at
the paper's Sec 4.2 parameters (``repro.core.registry.paper_config``):

* KLL and REQ: additive rank error.  The parameters target about 1%
  rank error; the check allows 2%, the tail a merged view of many
  partitions may reach.
* DDSketch and UDDSketch: relative error ``alpha = 0.01`` against the
  exact quantile, the guarantee both are built to keep.
* Moments: no per-quantile guarantee, so a loose 5% rank bound that
  still catches a wrong answer.

Errors and exact quantiles come from ``repro.metrics.errors``, which
follows the paper's Sec 2.1 definitions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidValueError
from repro.metrics.errors import rank_error, relative_error, true_quantile

QUANTILES = (0.5, 0.9, 0.99)

RANK_BOUND = {"kll": 0.02, "req": 0.02, "moments": 0.05}
RELATIVE_BOUND = {"ddsketch": 0.01, "uddsketch": 0.01}


def check_answers(
    sketch: str,
    answers: Sequence[float],
    sorted_data: np.ndarray,
    label: str,
) -> list[str]:
    """Problems with *answers* to ``QUANTILES``; empty when all pass."""
    problems = []
    for q, answer in zip(QUANTILES, answers):
        try:
            if sketch in RELATIVE_BOUND:
                error = relative_error(true_quantile(sorted_data, q), answer)
                bound = RELATIVE_BOUND[sketch]
                kind = "relative"
            else:
                error = rank_error(sorted_data, q, answer)
                bound = RANK_BOUND[sketch]
                kind = "rank"
        except InvalidValueError as exc:
            problems.append(
                f"{label}: {sketch} q={q} answered {answer!r}: {exc}"
            )
            continue
        # The slack absorbs float rounding at a bucket edge.
        if not error <= bound * (1.0 + 1e-9):
            problems.append(
                f"{label}: {sketch} q={q} answered {answer!r}, {kind} "
                f"error {error:.4g} > {bound}"
            )
    if len(answers) != len(QUANTILES):
        problems.append(
            f"{label}: {len(answers)} answers for {len(QUANTILES)} quantiles"
        )
    return problems
