"""Seeded multi-tenant access stream generation from phased Zipfian descriptors.

Each tenant draws items from a Zipf popularity law whose exponent can change
at configured transaction indices.  Tenants are interleaved by a deterministic
weighted round-robin so that identical seeds reproduce identical streams.
"""
from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, starmap
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_UNIVERSE = 100_000

# Largest universe_size a TenantWorkload accepts.  A stream holds a dense
# float64 CDF of universe_size entries per distinct (universe_size, alpha), so
# this bound caps one at 128 MiB; a larger universe is refused, not left to
# exhaust memory.  Between streams the process keeps recent CDFs of at most
# CDF_MEMO_ENTRIES entries in all (32 MiB); one larger than that is built for
# its stream and not kept.
MAX_UNIVERSE = 2**24
CDF_MEMO_ENTRIES = 2**22

# the round-robin numbers its turns in unsigned 64-bit arrays: a rotation's
# weights, bounded by the sum over all tenants, must stay below this
MAX_WEIGHT_SUM = 2**63

# most txns in one chunk: of generate_stream, and of a run's driver (harness._drive)
_BATCH = 8192


class WorkloadError(ValueError):
    """Invalid workload description or sampling argument."""


def zipf_pmf(universe_size: int, alpha: float) -> np.ndarray:
    """Zipf probability vector over ranks 0..universe_size-1.

    P(rank r) = (r+1)^-alpha / sum_j (j+1)^-alpha.  alpha=0 is uniform.
    """
    if universe_size < 1:
        raise WorkloadError("universe_size must be >= 1")
    if not 0 <= alpha < math.inf:
        raise WorkloadError("alpha must be finite and >= 0")
    weights = np.arange(1, universe_size + 1, dtype=np.float64)
    weights **= -alpha
    weights /= weights.sum()
    return weights


# (universe_size, alpha) -> read-only CDF, least recently used first
_cdf_memo: OrderedDict = OrderedDict()


def _zipf_cdf(universe_size: int, alpha: float) -> np.ndarray:
    """Cumulative zipf_pmf, built in the pmf's own array, with its last entry
    1.0, and read-only.

    The process keeps the CDFs it builds in a memo of at most
    CDF_MEMO_ENTRIES entries in all, evicting the least recently used
    first; a CDF larger than that is built on every call and not kept.
    """
    key = (universe_size, alpha)
    cdf = _cdf_memo.get(key)
    if cdf is not None:
        _cdf_memo.move_to_end(key)
        return cdf
    cdf = zipf_pmf(universe_size, alpha)
    np.cumsum(cdf, out=cdf)
    cdf[-1] = 1.0  # guard against rounding shortfall
    cdf.flags.writeable = False
    if len(cdf) <= CDF_MEMO_ENTRIES:
        _cdf_memo[key] = cdf
        kept = sum(map(len, _cdf_memo.values()))
        while kept > CDF_MEMO_ENTRIES:
            kept -= len(_cdf_memo.popitem(last=False)[1])
    return cdf


@dataclass(frozen=True)
class WorkloadPhase:
    """One segment of a tenant's access pattern, starting at start_txn.

    Phase starts, like a tenant's active_from/active_until, are read in
    schedule time; emitted txn indices skip idle stretches, so after one they
    run behind schedule time (see activation_timeline).
    """

    alpha: float
    start_txn: int = 0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:  # NaN fails both comparisons
            raise WorkloadError("phase alpha must be finite and >= 0")
        if self.start_txn < 0:
            raise WorkloadError("phase start_txn must be >= 0")


@dataclass
class TenantWorkload:
    tenant_id: int
    universe_size: int = DEFAULT_UNIVERSE
    phases: Sequence[WorkloadPhase] = (WorkloadPhase(alpha=1.0),)
    active_from: int = 0
    active_until: int | None = None
    weight: int = 1

    def __post_init__(self):
        if not 1 <= self.universe_size <= MAX_UNIVERSE:
            raise WorkloadError(f"universe_size must be in [1, {MAX_UNIVERSE}]")
        if self.weight < 1:
            raise WorkloadError("weight must be >= 1")
        if self.active_from < 0:
            raise WorkloadError("active_from must be >= 0")
        if self.active_until is not None and not self.active_from < self.active_until:
            raise WorkloadError("active_from must be < active_until")
        if not self.phases:
            raise WorkloadError("at least one phase is required")
        starts = [p.start_txn for p in self.phases]
        if starts != sorted(set(starts)):
            raise WorkloadError("phase start_txn values must be strictly increasing")
        if starts[0] != 0:
            raise WorkloadError("first phase must have start_txn = 0")

    def active_at(self, txn: int) -> bool:
        if txn < self.active_from:
            return False
        return self.active_until is None or txn < self.active_until

    def alpha_at(self, txn: int) -> float:
        alpha = self.phases[0].alpha
        for phase in self.phases:
            if phase.start_txn <= txn:
                alpha = phase.alpha
            else:
                break
        return alpha


class AccessEvent(NamedTuple):
    txn: int
    tenant_id: int
    item: int


def _tenant_entropy(tenant_id) -> int:
    if isinstance(tenant_id, (int, np.integer)):
        return int(tenant_id) & 0xFFFFFFFF
    return zlib.crc32(str(tenant_id).encode())


def activation_timeline(
    workloads: Iterable[TenantWorkload], total_txns: int
) -> list[tuple[int, int, tuple]]:
    """Points where the active set changes, as (txn, skew, active_ids) in txn order.

    Activation is read in schedule time (txn + skew).  A stretch where no
    tenant is active is skipped: its entry has no active ids and is followed
    by an entry at the same txn whose skew jumps to the next arrival.  A final
    entry with no active ids ends the stream early.  active_ids are sorted.
    """
    workloads = sorted(workloads, key=lambda w: w.tenant_id)
    bounds = {w.active_from for w in workloads}
    bounds |= {w.active_until for w in workloads if w.active_until is not None}
    timeline: list[tuple[int, int, tuple]] = []
    skew = 0
    for sched in sorted({0} | {b for b in bounds if b > 0}):
        if sched - skew >= total_txns:
            break
        active = tuple(w.tenant_id for w in workloads if w.active_at(sched))
        timeline.append((sched - skew, skew, active))
        if not active:
            future = [w.active_from for w in workloads if w.active_from > sched]
            if not future:
                break
            skew += min(future) - sched
    return timeline


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
    arrive.  Each draw maps through the CDF of the tenant's phase in force at
    the draw's schedule txn (txn plus the timeline's skew).

    The events are _chunks' arrays, one chunk ahead of the consumer, each
    built into an AccessEvent only when it is asked for, so generation is
    lazy, and a shorter stream of the same workloads and seed is a prefix of
    a longer one.  The arguments are checked at the first next().
    """
    return map(_event, chain.from_iterable(starmap(_triples, _chunks(workloads, total_txns, seed))))


# an AccessEvent from a (txn, tenant_id, item) tuple, built without a Python frame
_event = partial(tuple.__new__, AccessEvent)


def _triples(txns: range, active: tuple, codes: np.ndarray, items: np.ndarray) -> Iterator[tuple]:
    """The (txn, tenant_id, item) tuples of one of _chunks' chunks, plain
    ints and the workloads' tenant id objects."""
    return zip(txns, np.array(active, dtype=object)[codes].tolist(), items.tolist())


def _stream_length(workloads: Iterable[TenantWorkload], total_txns: int) -> int:
    """How many events generate_stream(workloads, total_txns) yields: fewer
    than total_txns when it ends early, none when total_txns < 0 (refused)."""
    timeline = activation_timeline(workloads, total_txns)
    # the stream ends at a last entry with no active ids
    return timeline[-1][0] if timeline and not timeline[-1][2] else max(total_txns, 0)


def _chunks(workloads: Iterable[TenantWorkload], total_txns: int, seed: int) -> Iterator[tuple]:
    """generate_stream's stream as arrays, one chunk at a time.

    Each chunk is (txns, active, codes, items): txns the range of its txn
    indices, active the active tenant ids in id order, and per txn the
    index in active of its tenant (codes, intp) and its item (items,
    int64).  Chunks hold at most _BATCH txns and are cut also where some
    active tenant's phase starts, so each tenant has one CDF per chunk.  A
    turn's tenant is found by arithmetic: its position in the rotation,
    searched in the active set's cumulative weights, so memory does not grow
    with the weights.  Each tenant has its own generator, seeded from seed
    and the tenant id, and its draws for a chunk are the generator's next
    uniforms mapped through one CDF, shared by every tenant with the same
    (universe_size, alpha).  That CDF is _zipf_cdf's: built once per process
    while its memo keeps it, so a sweep's seeds or a benchmark's repeated
    passes share it, and else once per stream.  A generator's uniforms are
    one stream however the draws are grouped into calls, so the chunks of a
    shorter stream are a prefix of a longer one's, cut at the shorter
    length.
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
    if sum(w.weight for w in workloads) >= MAX_WEIGHT_SUM:
        raise WorkloadError("tenant weights must sum to less than 2**63")
    rngs = {
        i: np.random.default_rng(
            np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, _tenant_entropy(i)))
        )
        for i in by_id
    }
    # (universe_size, alpha) -> CDF: the stream's hold on its CDFs, so that
    # one the memo does not keep is still built once per stream
    cdfs: dict = {}

    def cdf_at(w: TenantWorkload, sched: int) -> np.ndarray:
        key = (w.universe_size, w.alpha_at(sched))
        cdf = cdfs.get(key)
        if cdf is None:
            cdf = cdfs[key] = _zipf_cdf(*key)
        return cdf

    timeline = activation_timeline(workloads, total_txns)
    ends = [txn for txn, _, _ in timeline[1:]] + [total_txns]
    cur = None
    remaining = 0  # turns cur has left in its current rotation
    for (start, skew, active), end in zip(timeline, ends):
        if not active:
            continue  # an idle stretch (no txns) or the end of the stream
        if cur not in active:
            remaining = 0
        # one rotation is period turns; code c (the tenant active[c]) takes
        # turns bounds[c] .. bounds[c + 1] - 1 of it
        bounds = list(accumulate((by_id[t].weight for t in active), initial=0))
        period = bounds[-1]
        if remaining:
            pos = bounds[active.index(cur) + 1] - remaining
        else:  # the next id after cur, cyclically; the smallest before any turn
            pos = bounds[0 if cur is None else bisect_right(active, cur) % len(active)]
        cuts = set(range(start, end, _BATCH)) | {end}
        for t in active:
            cuts.update(p.start_txn - skew for p in by_id[t].phases)
        cuts = sorted(c for c in cuts if start <= c <= end)
        # pos stays below period < 2**63, so pos plus a chunk's offsets fits uint64
        edges = np.array(bounds, dtype=np.uint64)
        for lo, hi in zip(cuts, cuts[1:]):
            turns = np.arange(hi - lo, dtype=np.uint64)
            turns += pos
            turns %= period
            codes = np.searchsorted(edges, turns, side="right") - 1
            pos = (pos + hi - lo) % period
            items = np.empty(hi - lo, dtype=np.int64)
            for code, t in enumerate(active):
                mine = np.flatnonzero(codes == code)
                if len(mine):
                    # in increasing order each search starts from the last
                    # one's answer: the same items, in fewer cache misses
                    draws = rngs[t].random(len(mine))
                    order = draws.argsort()
                    items[mine[order]] = np.searchsorted(
                        cdf_at(by_id[t], lo + skew), draws[order], side="right"
                    )
            yield range(lo, hi), active, codes, items
        # an active stretch spans at least one txn, so some turn was taken
        last = (pos - 1) % period
        code = bisect_right(bounds, last) - 1
        cur = active[code]
        remaining = bounds[code + 1] - last - 1


@contextmanager
def text_file(target: str | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    """A path opened in mode and closed on exit, or an open handle passed through and left open."""
    if isinstance(target, str):
        with open(target, mode) as fh:
            yield fh
    else:
        yield target


def write_trace(events: Iterable[AccessEvent], out: str | IO[str]) -> None:
    """Export events as ASCII lines `txn,tenant_id,item`."""
    with text_file(out, "w") as fh:
        for ev in events:
            fh.write(f"{ev.txn},{ev.tenant_id},{ev.item}\n")


def read_trace(src: str | IO[str]) -> list[AccessEvent]:
    events = []
    with text_file(src) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            txn, tenant_id, item = line.split(",")
            events.append(AccessEvent(int(txn), int(tenant_id), int(item)))
    return events
