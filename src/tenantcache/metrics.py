"""Per-tenant hit-rate accounting: windowed rates, EWMA smoothing, requirement gaps."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

DEFAULT_WINDOW = 100
DEFAULT_EWMA_WEIGHT = 0.125


class MetricsError(ValueError):
    """Invalid metric argument or undefined aggregate."""


@dataclass(frozen=True)
class Requirement:
    """Hard (must hold) and soft (desired) hit-rate levels for one tenant."""

    hard: float = 0.0
    soft: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.hard <= self.soft <= 1.0:
            raise MetricsError("requirements must satisfy 0 <= hard <= soft <= 1")


def ewma_update(prev: float | None, observed: float, weight: float = DEFAULT_EWMA_WEIGHT) -> float:
    """Fold one observation into an exponentially weighted moving average.

    Returns weight*observed + (1-weight)*prev; the first observation (prev
    unset) is adopted directly.
    """
    if not 0.0 < weight <= 1.0:
        raise MetricsError("weight must be in (0, 1]")
    if prev is None:
        return observed
    return weight * observed + (1.0 - weight) * prev


@lru_cache(maxsize=1024)
def _window_rate(hits: int, window_length: int) -> float:
    """hits / window_length as one float object per value, shared by every
    tracker: a run's sample records hold the rate of each sampled window."""
    return hits / window_length


@dataclass
class HitRateTracker:
    """Counts hits over fixed-length access windows and smooths the window rates."""

    window_length: int = DEFAULT_WINDOW
    ewma_weight: float = DEFAULT_EWMA_WEIGHT
    window_hits: int = field(default=0, init=False)
    window_accesses: int = field(default=0, init=False)
    ewma: float | None = field(default=None, init=False)
    last_window_rate: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.window_length < 1:
            raise MetricsError("window_length must be >= 1")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise MetricsError("ewma_weight must be in (0, 1]")

    def record_access(self, hit: bool) -> float | None:
        """Count one access; on window completion return the window's rate.

        Completing a window folds its rate into the EWMA estimate and resets
        the counters.  Mid-window calls return None.
        """
        self.window_accesses += 1
        if hit:
            self.window_hits += 1
        if self.window_accesses < self.window_length:
            return None
        rate = _window_rate(self.window_hits, self.window_length)
        self.ewma = ewma_update(self.ewma, rate, self.ewma_weight)
        self.last_window_rate = rate
        self.window_hits = 0
        self.window_accesses = 0
        return rate

    @property
    def hit_rate(self) -> float:
        """Smoothed estimate; 0.0 until the first window completes."""
        return self.ewma if self.ewma is not None else 0.0


@dataclass(frozen=True)
class GapReport:
    per_tenant_gap: dict
    min_gap: float


def gap_report(
    hit_rates: Mapping[int, float],
    softs: Mapping[int, float],
    active: Iterable[int],
) -> GapReport:
    """Per-tenant gaps h_k - S_k and their minimum over the active set."""
    active = list(active)
    if not active:
        raise MetricsError("gap report undefined for an empty active set")
    gaps = {k: hit_rates[k] - softs[k] for k in active}
    return GapReport(per_tenant_gap=gaps, min_gap=min(gaps.values()))


def check_objectives(
    hit_rates: Mapping[int, float],
    requirements: Mapping[int, Requirement],
    active: Iterable[int],
) -> tuple[dict, float]:
    """Hard-requirement violation flags (h_k < H_k) and the min soft gap."""
    active = list(active)
    report = gap_report(hit_rates, {k: requirements[k].soft for k in active}, active)
    violations = {k: hit_rates[k] < requirements[k].hard for k in active}
    return violations, report.min_gap
