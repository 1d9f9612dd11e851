"""The chunked stream generator against the per-event one it replaced.

Below are zipf_pmf, _TenantSampler (with its per-event draw), generate_stream
and _next_after as they stood when the stream was built one event at a time,
copied verbatim.  For any workloads, length and seed, workload.generate_stream
must yield the same events.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenantcache import workload
from tenantcache.workload import (
    _BATCH,
    AccessEvent,
    TenantWorkload,
    WorkloadError,
    WorkloadPhase,
    _tenant_entropy,
    activation_timeline,
)

# -- the reference: the per-event generator, verbatim ------------------------


def zipf_pmf(universe_size: int, alpha: float) -> np.ndarray:
    """Zipf probability vector over ranks 0..universe_size-1.

    P(rank r) = (r+1)^-alpha / sum_j (j+1)^-alpha.  alpha=0 is uniform.
    """
    if universe_size < 1:
        raise WorkloadError("universe_size must be >= 1")
    if not 0 <= alpha < math.inf:
        raise WorkloadError("alpha must be finite and >= 0")
    ranks = np.arange(1, universe_size + 1, dtype=np.float64)
    weights = ranks ** -alpha
    return weights / weights.sum()


class _TenantSampler:
    """Per-tenant item sampler with its own RNG stream.

    Uniform draws are buffered in batches and mapped through the CDF of the
    phase in force; a phase switch re-maps the unconsumed tail so that the
    underlying uniform stream (and hence determinism) is unaffected.
    """

    def __init__(self, workload: TenantWorkload, master_seed: int):
        self.workload = workload
        seq = np.random.SeedSequence(
            (master_seed & 0xFFFFFFFFFFFFFFFF, _tenant_entropy(workload.tenant_id))
        )
        self._rng = np.random.default_rng(seq)
        self._alpha: float | None = None
        self._cdf: np.ndarray | None = None
        self._uniforms = np.empty(0)
        self._items = np.empty(0, dtype=np.int64)
        self._pos = 0

    def _set_phase(self, alpha: float) -> None:
        self._alpha = alpha
        cdf = np.cumsum(zipf_pmf(self.workload.universe_size, alpha))
        cdf[-1] = 1.0  # guard against rounding shortfall
        self._cdf = cdf
        if self._pos < len(self._uniforms):
            tail = self._uniforms[self._pos:]
            self._items[self._pos:] = np.searchsorted(cdf, tail, side="right")

    def draw(self, txn: int) -> int:
        alpha = self.workload.alpha_at(txn)
        if alpha != self._alpha:
            self._set_phase(alpha)
        if self._pos >= len(self._uniforms):
            self._uniforms = self._rng.random(_BATCH)
            self._items = np.searchsorted(self._cdf, self._uniforms, side="right")
            self._pos = 0
        item = int(self._items[self._pos])
        self._pos += 1
        return item


def generate_stream(
    workloads: Iterable[TenantWorkload],
    total_txns: int,
    seed: int = 0,
) -> Iterator[AccessEvent]:
    """Yield total_txns events, interleaving tenants by weighted round-robin.

    A tenant with weight w takes w consecutive turns per rotation over the
    active set (ordered by tenant id).  The active set follows
    activation_timeline: idle stretches are skipped while emitted txn indices
    stay consecutive, and the stream ends early once no tenant is left to
    arrive.
    """
    workloads = list(workloads)
    if total_txns < 0:
        raise WorkloadError("total_txns must be >= 0")
    if not workloads:
        raise WorkloadError("at least one workload is required")
    by_id = {}
    for w in workloads:
        if w.tenant_id in by_id:
            raise WorkloadError(f"duplicate tenant_id {w.tenant_id}")
        by_id[w.tenant_id] = w
    samplers = {i: _TenantSampler(w, seed) for i, w in by_id.items()}

    timeline = activation_timeline(workloads, total_txns)
    ends = [txn for txn, _, _ in timeline[1:]] + [total_txns]
    cur = None
    remaining = 0
    for (start, skew, active), end in zip(timeline, ends):
        if not active:
            continue  # an idle stretch (no txns) or the end of the stream
        if cur not in active:
            remaining = 0
        for txn in range(start, end):
            if remaining <= 0:
                cur = _next_after(active, cur)
                remaining = by_id[cur].weight
            remaining -= 1
            yield AccessEvent(txn, cur, samplers[cur].draw(txn + skew))


def _next_after(active: Sequence[int], cur: int | None) -> int:
    """Next tenant after cur in cyclic id order; smallest id when cur is unset."""
    if cur is None:
        return active[0]
    for i in active:
        if i > cur:
            return i
    return active[0]


# -- the chunked generator against it -----------------------------------------

ALPHAS = (0.0, 0.6, 0.9, 1.2)
UNIVERSES = (1, 7, 300)

tenant_specs = st.tuples(
    st.sampled_from(UNIVERSES),
    # (alpha, gap to its start) per phase after the first; alphas may recur
    st.sampled_from(ALPHAS),
    st.lists(st.tuples(st.sampled_from(ALPHAS), st.integers(1, 12_000)), max_size=3),
    st.sampled_from((0, 0, 40, 9_000)) | st.integers(0, 20_000),  # arrival
    st.none() | st.integers(1, 20_000),  # time until departure
    st.integers(1, 5) | st.just(10**9),  # weight
)
lengths = st.one_of(
    st.integers(0, 300),
    st.sampled_from((_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH - 1, 2 * _BATCH, 2 * _BATCH + 1)),
    st.integers(_BATCH - 200, 2 * _BATCH + 200),
)


def tenants_of(specs):
    ws = []
    for i, (universe, alpha, later, arrival, span, weight) in enumerate(specs):
        phases, start = [WorkloadPhase(alpha)], 0
        for a, gap in later:
            start += gap
            phases.append(WorkloadPhase(a, start_txn=start))
        ws.append(TenantWorkload(
            tenant_id=3 * i + 1,
            universe_size=universe,
            phases=tuple(phases),
            active_from=arrival,
            active_until=None if span is None else arrival + span,
            weight=weight,
        ))
    return ws


@settings(max_examples=120, deadline=None)
@given(st.lists(tenant_specs, min_size=1, max_size=4), lengths, st.integers(0, 2**40))
# a phase that returns to an earlier alpha, and two tenants sharing (300, 0.9)
@example([(300, 0.9, [(1.2, 3_000), (0.9, 6_000)], 0, None, 3),
          (300, 0.9, [], 0, None, 1)], 2 * _BATCH + 1, 0)
# a late arrival, a departure and an idle stretch, all inside the first chunk
@example([(7, 0.6, [], 0, 5_000, 2), (300, 1.2, [(0.0, 2_000)], 9_000, None, 5)],
         _BATCH + 1, 1)
# a late first arrival, and an early end before the length asked for
@example([(300, 0.9, [(0.6, 500)], 40, 12_000, 1), (1, 0.0, [], 100, 9_000, 4)],
         2 * _BATCH, 2)
# a departure mid-rotation: the next turn goes to the next id after it
@example([(7, 0.9, [], 0, None, 2), (7, 0.9, [], 0, 5, 5), (7, 0.9, [], 0, None, 3)],
         300, 3)
# a weight far above any length, whose tenant keeps the turn until it departs
@example([(7, 0.9, [], 0, None, 1), (300, 0.6, [], 0, 3_000, 10**9), (1, 0.0, [], 0, None, 2)],
         _BATCH + 1, 4)
# weights summing to just under 2**63, a rotation resumed at its far end
@example([(7, 0.9, [], 5, None, 2**63 - 3), (7, 0.9, [], 0, 5, 1), (7, 0.9, [], 5, None, 1)],
         300, 5)
def test_chunked_stream_equals_per_event_stream(specs, length, seed):
    ws = tenants_of(specs)
    assert list(workload.generate_stream(ws, length, seed)) == list(
        generate_stream(ws, length, seed)
    )


def test_shared_cdf_equals_per_tenant_cdf():
    for universe in (1, 2, 1000):
        for alpha in ALPHAS + (0.5, 1.0, 2.0):
            cdf = np.cumsum(zipf_pmf(universe, alpha))
            cdf[-1] = 1.0
            assert np.array_equal(workload._zipf_cdf(universe, alpha), cdf)
            assert np.array_equal(workload.zipf_pmf(universe, alpha), zipf_pmf(universe, alpha))
