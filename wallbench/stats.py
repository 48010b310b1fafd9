"""Small statistics helpers shared by the load generator and its tests."""

from __future__ import annotations

import math
import re
from typing import Dict, Sequence

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Refuses (``ValueError``) unless at least ``MIN_TAIL`` samples lie
    beyond the reported one, so a p90 needs 100 or more samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n == 0 or n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {MIN_TAIL}"
        )
    return sorted(samples)[rank - 1]


def check_metric_names(metrics: Dict[str, object]) -> None:
    """Raise ``ValueError`` on any name outside ``[A-Za-z0-9_.-]+``."""
    bad = sorted(n for n in metrics if not METRIC_NAME.fullmatch(n))
    if bad:
        raise ValueError(f"malformed metric names: {bad}")
