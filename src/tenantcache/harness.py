"""Scenario configuration, the simulation driver, capacity search, and CSV output."""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import abc
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from itertools import islice, repeat
from operator import is_, itemgetter
from types import NoneType, UnionType
from typing import IO, Iterable, Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .cache_core import (
    LRU,
    REPLACEMENTS,
    CacheError,
    RegionLayout,
    UnknownTenantError,
)
from .metrics import (
    DEFAULT_EWMA_WEIGHT,
    DEFAULT_WINDOW,
    HitRateTracker,
    Requirement,
    ewma_update,
)
# global_insert, static_insert, maxmin_insert, hybrid_insert,
# selfish_eligible and generate_stream run nowhere here, but the benchmark's
# tracer (perfbench/tracer.py) wraps them on this module by name until the
# benchmark is refreshed (ROADMAP item 1)
from .sharing import (
    INF,
    DonorCursor,
    Donors,
    FifoHeaps,
    RecencyLists,
    SharingStrategy,
    global_insert,
    hybrid_insert,
    maxmin_insert,
    selfish_eligible,
    static_insert,
)
from .workload import (
    _BATCH,
    DEFAULT_UNIVERSE,
    MAX_WEIGHT_SUM,
    TenantWorkload,
    WorkloadPhase,
    _chunks,
    _stream_length,
    _triples,
    activation_timeline,
    generate_stream,
    text_file,
)

POLICIES = (
    "global",
    "static",
    "maxmin_fair",
    "maxmin_selfish",
    "hybrid_fair",
    "hybrid_selfish",
)

CSV_HEADER = "txn,tenant_id,ewma_hit_rate,window_hit_rate,dc_slots,sc_slots,gap,hard_violation,G"
SWEEP_CSV_HEADER = "target,policy,min_slots,savings_vs_global,savings_vs_static"


class ConfigurationError(ValueError):
    """A scenario field is missing, malformed, or inconsistent."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class InfeasibleTargetError(RuntimeError):
    """The capacity search's upper bound cannot meet the requested hit rate."""


@dataclass(frozen=True)
class TenantSpec:
    workload: TenantWorkload
    requirement: Requirement = Requirement()


@dataclass(frozen=True, slots=True)
class TenantSample:
    ewma_hit_rate: float
    window_hit_rate: float
    dc_slots: int
    sc_slots: int
    gap: float
    hard_violation: bool


@dataclass(frozen=True, slots=True)
class SampleRecord:
    txn: int
    tenants: Mapping[int, TenantSample]
    min_gap: float


@dataclass(frozen=True)
class CapacitySweepResult:
    target: float
    policy: str
    min_slots: int
    savings_vs_global: float | None = None
    savings_vs_static: float | None = None


@dataclass
class Scenario:
    capacity: int
    policy: str
    tenants: Sequence[TenantSpec]
    layout: RegionLayout | None = None
    total_txns: int = 200_000
    window_length: int = DEFAULT_WINDOW
    ewma_weight: float = DEFAULT_EWMA_WEIGHT
    strategy: SharingStrategy = field(default_factory=SharingStrategy)
    replacement: str = LRU
    seed: int = 0
    sample_every: int = 1_000

    def tenant_ids(self) -> list[int]:
        return [t.workload.tenant_id for t in self.tenants]

    def validate(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("capacity", "must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigurationError("policy", f"must be one of {', '.join(POLICIES)}")
        if not self.tenants:
            raise ConfigurationError("tenants", "at least one tenant is required")
        ids = self.tenant_ids()
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tenants", "tenant ids must be unique")
        # the sum over all tenants bounds every active set's rotation
        if sum(t.workload.weight for t in self.tenants) >= MAX_WEIGHT_SUM:
            raise ConfigurationError("tenants", "weights must sum to less than 2**63")
        if self.total_txns < 0:
            raise ConfigurationError("total_txns", "must be >= 0")
        if self.sample_every < 1:
            raise ConfigurationError("sample_every", "must be >= 1")
        if self.window_length < 1:
            raise ConfigurationError("window_length", "must be >= 1")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ConfigurationError("ewma_weight", "must be in (0, 1]")
        if self.replacement not in REPLACEMENTS:
            raise ConfigurationError("replacement", f"must be one of {', '.join(REPLACEMENTS)}")
        layout = self.resolved_layout()
        if layout.capacity != self.capacity:
            raise ConfigurationError(
                "layout", f"region sizes sum to {layout.capacity}, capacity is {self.capacity}"
            )
        if self.policy in ("global", "maxmin_fair", "maxmin_selfish") and layout.dc_sizes:
            if any(v > 0 for v in layout.dc_sizes.values()):
                raise ConfigurationError("layout", f"{self.policy} requires an all-SC layout")
        if self.policy == "static" and layout.sc_size != 0:
            raise ConfigurationError("layout", "static requires sc_size = 0")
        dc_sizes = layout.dc_sizes
        extra = sorted(set(dc_sizes) - set(ids))
        if extra:
            raise ConfigurationError("layout", f"dc_sizes names tenants {extra} not in tenants")
        # every tenant needs a slot it may use: an SC region or a DC slot of its own
        if self.policy.startswith("hybrid") or any(dc_sizes.values()):
            missing = [i for i in ids if i not in dc_sizes]
            if missing:
                raise ConfigurationError("layout", f"missing dc_sizes for tenants {missing}")
        if not layout.sc_size:
            starved = [i for i in ids if not dc_sizes[i]]
            if starved:
                raise ConfigurationError(
                    "capacity" if self.layout is None else "layout",
                    f"tenants {starved} get no DC slot and there is no SC region",
                )

    def resolved_layout(self) -> RegionLayout:
        if self.layout is not None:
            return self.layout
        return derive_layout(self.policy, self.capacity, self.tenant_ids())


def _check_policies(policies: Iterable[str], known: Sequence[str]) -> None:
    """Raise a ConfigurationError naming policies unless every one is known."""
    for policy in policies:
        if policy not in known:
            raise ConfigurationError("policies", f"{policy!r} is not one of {', '.join(known)}")


def derive_layout(
    policy: str,
    capacity: int,
    tenant_ids: Iterable[int],
    base: RegionLayout | None = None,
) -> RegionLayout:
    """Default layout for a policy: all-SC, equal static split, or the given hybrid layout."""
    if policy in ("global", "maxmin_fair", "maxmin_selfish"):
        return RegionLayout.global_layout(capacity)
    if policy == "static":
        return RegionLayout.static_layout(capacity, tenant_ids)
    if policy.startswith("hybrid"):
        if base is None or not base.dc_sizes:
            raise ConfigurationError("layout", "hybrid policies need explicit dc_sizes")
        return base
    raise ConfigurationError("policy", f"unknown policy {policy!r}")


# -- JSON configuration ----------------------------------------------------


@contextmanager
def _reading(path: str):
    """Report a failure to read or build the field at path as a ConfigurationError.

    A missing key is named below path; any other bad value names path itself.
    A ConfigurationError from within names its field already and passes unchanged.
    """
    try:
        yield
    except ConfigurationError:
        raise
    except KeyError as exc:
        raise ConfigurationError(f"{path}.{exc.args[0]}", "missing field") from exc
    except (OSError, TypeError, ValueError, AttributeError, OverflowError, CacheError) as exc:
        raise ConfigurationError(path, str(exc)) from exc


def scenario_from_json(doc: Mapping | str) -> Scenario:
    """Build a Scenario from a JSON document (dict, JSON text, or file path).

    Each key that names a Scenario field is read by the field's type (see
    _reader); an absent one takes the dataclass's default, and other keys are
    ignored.  Every failure, from an unreadable file to an inconsistent field,
    raises a ConfigurationError naming the field.
    """
    with _reading("config"):
        if isinstance(doc, str):
            if doc.lstrip()[:1] in ("{", "["):
                doc = json.loads(doc)
            else:
                with open(doc) as fh:
                    doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise ConfigurationError("config", f"must be a JSON object, not {type(doc).__name__}")
    values = {}
    for name, (read, required) in _table(Scenario).items():
        if name in doc:
            with _reading(name):
                values[name] = read(doc[name])
        elif required:
            raise ConfigurationError(name, "missing field")
    scenario = Scenario(**values)
    scenario.validate()
    return scenario


def _from_json(cls, doc, **values):
    """cls from values and from doc's keys that name its other fields.

    Each key is read by its field's type, and an absent one takes cls's
    default; an absent required one raises KeyError.
    """
    if not isinstance(doc, Mapping):
        raise TypeError(f"must be a JSON object, not {type(doc).__name__}")
    for name, (read, required) in _table(cls).items():
        if name not in values and (required or name in doc):
            try:
                values[name] = read(doc[name])
            except TypeError as exc:
                raise TypeError(f"{name}: {exc}") from None
    return cls(**values)


def _tenants_from_json(docs: Iterable) -> list[TenantSpec]:
    """Tenant documents, each its workload's fields next to its requirement;
    a failure names the tenant by its index."""
    tenants = []
    for i, doc in enumerate(docs):
        with _reading(f"tenants[{i}]"):
            tenants.append(_from_json(TenantSpec, doc, workload=_from_json(TenantWorkload, doc)))
    return tenants


# the JSON values each scalar field type takes; true and false are not numbers
_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str)}


def _scalar(hint: type, value):
    """value as a hint, when it is a JSON value of that kind."""
    kind, types = _JSON_TYPES[hint]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"expected {kind}, got {value!r}")
    return hint(value)


def _reader(hint):
    """The function that reads a JSON value as a field of type hint.

    A dataclass is read from an object by its own fields, a sequence from an
    array, a Mapping[int, ...] from an object with integer strings as keys.
    A hint with no reader raises TypeError, at import since every table is
    built then.
    """
    if hint in _JSON_TYPES:
        return partial(_scalar, hint)
    if hint == Sequence[TenantSpec]:
        return _tenants_from_json
    if is_dataclass(hint):
        _table(hint)
        return partial(_from_json, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType and args[1:] == (NoneType,):
        read = _reader(args[0])
        return lambda value: None if value is None else read(value)
    if origin is abc.Sequence:
        read = _reader(args[0])
        return lambda values: [read(value) for value in values]
    if origin is abc.Mapping and args[0] is int:
        read = _reader(args[1])
        return lambda values: {int(key): read(value) for key, value in values.items()}
    raise TypeError(f"no JSON reader for fields of type {hint}")


@cache
def _table(cls) -> dict:
    """cls's fields, each with the reader of its type and whether it has no default."""
    hints = get_type_hints(cls)
    return {
        f.name: (_reader(hints[f.name]), f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


# every reader is built now, so a field type with no reader fails at import
_table(Scenario)
_table(TenantSpec)


def scenario_to_json(s: Scenario) -> dict:
    """dataclasses.asdict(s), with each tenant's workload fields flat next to its
    requirement and a layout's dc_sizes keyed by strings, as JSON keys are."""
    doc = asdict(s)
    doc["tenants"] = [
        {**t["workload"], "phases": list(t["workload"]["phases"]), "requirement": t["requirement"]}
        for t in doc["tenants"]
    ]
    layout = doc.pop("layout")
    if layout is not None:
        doc["layout"] = {**layout, "dc_sizes": {str(k): v for k, v in layout["dc_sizes"].items()}}
    return doc


# -- simulation driver -----------------------------------------------------


def run_scenario(
    s: Scenario, trace: Iterable[tuple[int, int, int]] | None = None, sample_from: int = 0
) -> list[SampleRecord]:
    """Drive the scenario's policy over its workload stream.

    The run keeps no slots.  Under LRU tenant k's resident items are
    always its dc_k + sc_k most recent distinct items and every victim is
    its owner's least recent one (the stack property; Mattson et al. 1970),
    so RecencyLists replays hybrid_insert's cases on per-tenant recency
    lists (one shared list under global) and slot counts.  FCFS is not a
    stack algorithm, so FifoHeaps replays them through fifo_insert on
    insertion stamps, in per-tenant heaps by region (one shared SC heap
    under global) and slot counts.  Either gives the records of
    hybrid_insert on a SlotStore of the same replacement bit for bit.

    A lookup hit before any mutation counts as a hit; everything else is a
    miss.  A given trace holds (txn, tenant_id, item) triples, AccessEvents
    or plain tuples, in strictly increasing txn order (else ValueError),
    each txn an int that int64 holds (else OverflowError); items may be
    any hashable value.  Without one the scenario's stream is generated
    chunk by chunk as arrays, with no AccessEvent built.  Gaps are
    allowed: every activation change at or before an event's txn is
    applied before its access, and a skipped txn is not sampled.  One SampleRecord is emitted
    every sample_every transactions from txn sample_from on, over the
    tenants active at that txn per activation_timeline (the generator's
    account of arrivals and departures).  Sampling only reads the run, so
    sample_from decides which records are built, never their values.
    Selfish or fair sharing follows the policy name; donors are ranked
    again whenever a gap, a selfish answer or the active set changes.  An
    event of a tenant the scenario does not list, or of one that has not
    arrived yet, raises UnknownTenantError under every policy once the
    events before it are served; a departed tenant's events are accepted.
    The run is fully deterministic given the scenario (seed included).
    """
    s.validate()
    engine = RecencyLists if s.replacement == LRU else FifoHeaps
    store = engine(s.resolved_layout(), s.tenant_ids(), shared=s.policy == "global")
    return _drive(s, store, trace, sample_from)


_NEVER = np.iinfo(np.int64).max  # the arrival txn of a tenant that never arrives


def _drive(s: Scenario, store, trace: Iterable[tuple] | None, sample_from: int) -> list:
    """run_scenario's driver over a validated scenario s: the accesses of
    trace (s's own stream when None) served by store, and the windows,
    donor account and samples around them.

    The accesses come from _accesses in chunks of at most _BATCH, and the
    driver finds each chunk's stops before serving it (_stops): the
    accesses that close a window, those whose txn is sampled, and the
    activation changes applied before an access.  Between two stops the
    donor ranking cannot change, so store.serve(events, ranking, hits)
    takes all the accesses in between in one call and adds each tenant's
    hits to hits; nothing is called per access here.  At each
    stop, in this order: the closing tenant's HitRateTracker folds its
    window's hits (close_window) and the donor account is told of the
    close with the tenant's slots and smoothed rate; the sample is read;
    each change is told to the account, each arrival's tracker built
    first, so that the account reads the arrival's rate from it.  Gaps,
    selfish answers, histories, the active set and the donor ranking are
    that one Donors account.  Memory is the store's, the records' and one
    chunk's, whatever the trace length.

    store is the cache state: RecencyLists or FifoHeaps in a run or an
    FCFS probe, or anything else with that serve and an owned(tenant)
    that gives (dc_slots, sc_slots), as the tests' SlotStore reference
    runs have.  Without a donor ranking (global, static) SC donors go by
    age.
    """
    policy = s.policy
    reqs = {t.workload.tenant_id: t.requirement for t in s.tenants}
    ids = sorted(reqs)
    index = {k: c for c, k in enumerate(ids)}
    # a tenant's tracker is built when it arrives and kept after it departs
    trackers: dict = {}
    hits = dict.fromkeys(ids, 0)  # each tenant's hits in its open window
    counts = [0] * len(ids)  # each tenant's accesses in its open window, by code
    donors = Donors({k: r.soft for k, r in reqs.items()}, s.strategy,
                    policy.endswith("selfish"), ranked=policy not in ("global", "static"))
    ranking, gaps = donors.ranking, donors.gaps

    # the active set from each txn where it changes; an idle stretch's two
    # entries share a txn, and the later one wins
    timeline = activation_timeline([t.workload for t in s.tenants], s.total_txns)
    changes = {txn: set(now) for txn, _, now in timeline}
    pending = sorted(changes)
    arrivals = np.full(len(ids), _NEVER, dtype=np.int64)  # each code's first arrival txn
    for txn in reversed(pending):
        arrivals[[index[k] for k in changes[txn]]] = txn

    records: list[SampleRecord] = []
    kept: dict = {}  # tenant -> its last sample, shared by records while unchanged
    window, every = s.window_length, s.sample_every
    for txns, codes, events in _accesses(s, trace, index, arrivals):
        mine = [np.flatnonzero(codes == c) for c in range(len(ids))]
        stops, closes, samples, applied = _stops(txns, mine, counts, window, every,
                                                 sample_from, pending)
        events = iter(events)
        start = 0
        for stop in stops:
            if stop >= start:
                store.serve(islice(events, stop + 1 - start), ranking, hits)
                start = stop + 1
            if stop in closes:
                k = ids[closes[stop]]
                tracker = trackers[k]
                tracker.close_window(hits[k])
                hits[k] = 0
                ranking = donors.closed(k, sum(store.owned(k)), tracker.hit_rate)
            if stop in samples:
                records.append(_sample(int(txns[stop]), store, trackers, reqs, gaps,
                                       donors.active, kept))
            for txn in applied[stop] if stop in applied else ():
                now = changes[txn]
                for k in now.difference(trackers):  # first arrivals
                    trackers[k] = HitRateTracker(window, s.ewma_weight)
                ranking = donors.change(now, lambda k: trackers[k].hit_rate)
    return records


def _accesses(s: Scenario, trace: Iterable[tuple] | None, index: dict,
              arrivals: np.ndarray) -> Iterator[tuple]:
    """The accesses of a run, at most _BATCH at a time, as (txns, codes,
    events): txns a range or an int64 array, codes each access's tenant's
    index in the sorted ids (index), an intp array, and events an iterable
    of the (txn, tenant_id, item) triples themselves.

    Without a trace they are s's stream, read from _chunks' arrays and
    zipped as plain ints.  A given trace is read in islices, its txns and
    tenant codes each through np.fromiter: a txn that int64 cannot hold
    raises OverflowError there, and txns that do not increase raise
    ValueError.  An event of a tenant not in index, or before its first
    arrival txn in arrivals (indexed by code), ends the chunk before it;
    it raises UnknownTenantError at the next chunk asked for, so the
    events before it are served first.
    """
    if trace is None:
        for txns, active, local, items in _chunks([t.workload for t in s.tenants],
                                                  s.total_txns, s.seed):
            codes = np.array([index[k] for k in active], dtype=np.intp)[local]
            yield txns, codes, _triples(txns, active, local, items)
        return
    events, last = iter(trace), None
    while chunk := list(islice(events, _BATCH)):
        n = len(chunk)
        txns = np.fromiter(map(itemgetter(0), chunk), np.int64, n)
        if (txns[1:] <= txns[:-1]).any() or last is not None and txns[0] <= last:
            raise ValueError("the txns of a given trace must increase")
        last = txns[-1]
        codes = np.fromiter(map(index.get, map(itemgetter(1), chunk), repeat(-1)), np.intp, n)
        since = arrivals[codes]
        wrong = (codes < 0) | (since == _NEVER) | (txns < since)
        at = wrong.argmax() if wrong.any() else n
        yield txns[:at], codes[:at], chunk[:at]
        if at < n:
            txn, tenant = chunk[at][:2]
            why = "is not in the scenario" if codes[at] < 0 else "has not arrived"
            raise UnknownTenantError(f"tenant {tenant!r} at txn {txn} {why}")


def _stops(txns, mine: list, counts: list, window: int, every: int, sample_from: int,
           pending: list) -> tuple:
    """One chunk's stops, each the position in the chunk of the access it
    follows: (every stop in order, closes, samples, changes).  The chunk's
    last access is always a stop.

    txns are the chunk's txns, increasing: a range when consecutive, else
    an int64 array; mine[c] holds the positions of tenant c's accesses, in
    order.  closes maps each access that closes its tenant's window to the
    tenant's code.  counts[c] is tenant c's accesses in its open window
    before the chunk, and is moved past the chunk in place.  samples holds
    each access whose txn is sampled: from sample_from on, every
    sample_every txns, (txn + 1) % every == 0.  changes maps a position to
    the change txns of pending that are applied after it (-1: before the
    chunk's first access), each before the first access at or after its
    txn; they leave pending.
    """
    n = len(txns)
    if not n:
        return [], {}, set(), {}
    closes: dict = {}
    for c, (seen, at) in enumerate(zip(counts, mine)):
        counts[c] = (seen + len(at)) % window
        closes.update(zip(at[window - 1 - seen :: window].tolist(), repeat(c)))
    if isinstance(txns, range):
        first = max(txns.start, sample_from)
        first += -(first + 1) % every  # the first sampled txn from there
        samples = set(range(first - txns.start, n, every))
    else:
        samples = set(np.flatnonzero((txns % every == every - 1) & (txns >= sample_from)).tolist())
    due = bisect_right(pending, txns[-1])
    changes: dict = {}
    for txn in pending[:due]:
        changes.setdefault(bisect_left(txns, txn) - 1, []).append(txn)
    del pending[:due]
    return sorted(closes.keys() | samples | changes.keys() | {n - 1}), closes, samples, changes


def _sample(txn, store, trackers, reqs, gaps, active, kept=None) -> SampleRecord:
    """One record over the active tenants.

    Each gap is the driver's own (the one victim choice used), and G is
    their minimum; a hard flag is h_k < H_k, as in check_objectives, the
    objective's public definition.  kept maps each tenant
    to the field values and TenantSample it was last sampled with; a tenant
    whose fields are the very same objects again shares that sample, so a
    run's records hold one sample per change, not one per record.
    """
    if not active:
        return SampleRecord(txn=txn, tenants={}, min_gap=INF)
    if kept is None:
        kept = {}
    ids = sorted(active)
    tenants = {}
    for k in ids:
        rate, last = trackers[k].hit_rate, trackers[k].last_window_rate
        dc_n, sc_n = store.owned(k)
        values = (rate, last if last is not None else 0.0, dc_n, sc_n, gaps[k],
                  rate < reqs[k].hard)
        old = kept.get(k)
        if old is not None and all(map(is_, values, old[0])):
            tenants[k] = old[1]
        else:
            tenants[k] = TenantSample(*values)
            kept[k] = (values, tenants[k])
    return SampleRecord(txn=txn, tenants=tenants, min_gap=min(gaps[k] for k in ids))


def write_records_csv(records: Iterable[SampleRecord], out: str | IO[str]) -> None:
    with text_file(out, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            for k, t in rec.tenants.items():
                fh.write(
                    f"{rec.txn},{k},{t.ewma_hit_rate:.6f},{t.window_hit_rate:.6f},"
                    f"{t.dc_slots},{t.sc_slots},{t.gap:.6f},{int(t.hard_violation)},"
                    f"{rec.min_gap:.6f}\n"
                )


def compare_policies(
    base: Scenario, policies: Sequence[str]
) -> dict[str, list[SampleRecord]]:
    """Replay one generated trace through each policy so curves are workload-identical.

    Every policy name and layout is checked before the first run.  The trace
    is generated once and held as a capacity search holds its probes'
    traces, in a ProbeCache: tenant codes and items in arrays, not events.
    """
    base.validate()
    _check_policies(policies, POLICIES)
    layouts = {p: derive_layout(p, base.capacity, base.tenant_ids(), base.layout) for p in policies}
    workloads = [t.workload for t in base.tenants]
    cache = ProbeCache()
    results: dict[str, list[SampleRecord]] = {}
    for policy, layout in layouts.items():
        scenario = replace(base, policy=policy, layout=layout)
        trace = cache.trace(workloads, base.total_txns, base.seed)
        results[policy] = run_scenario(scenario, trace=trace)
    return results


# -- capacity search -------------------------------------------------------


_COLD = np.iinfo(np.int32).max  # stack distance of a first access: a miss at any capacity


def _greater_before(values: np.ndarray) -> np.ndarray:
    """How many earlier entries of values (ints >= 0) exceed each one, as int32.

    All at once with a wavelet matrix (Claude, Navarro & Ordóñez, Inf. Syst.
    2015), one level per bit from the top.  A level lists the values stably
    partitioned by their higher bits, so an entry's earlier ones with the
    same higher bits lie between its group's start, lo, and itself, hi.
    Where its own bit is 0, those with a 1 there are greater.
    """
    m = len(values)
    greater = np.zeros(m, dtype=np.int32)
    lo = np.zeros(m, dtype=np.int32)
    hi = np.arange(m, dtype=np.int32)
    bits = np.empty(m, dtype=bool)
    ones = np.zeros(m + 1, dtype=np.int32)  # ones[i]: the level's 1 bits before position i
    for s in reversed(range(int(values.max(initial=0)).bit_length())):
        mine = (values & (1 << s)).astype(bool)
        bits[hi] = mine
        np.cumsum(bits, dtype=np.int32, out=ones[1:])
        at_lo, at_hi = ones.take(lo), ones.take(hi)
        greater += np.where(mine, 0, at_hi - at_lo)
        zeros = m - ones[-1]  # the next level lists the 0s, then the 1s
        lo = np.where(mine, at_lo + zeros, lo - at_lo)
        hi = np.where(mine, at_hi + zeros, hi - at_hi)
    return greater


def _stack_distances(keys: np.ndarray) -> np.ndarray:
    """The LRU stack distance of every access in keys (Mattson et al., IBM Sys. J. 1970).

    An access's distance is the number of distinct keys accessed since its
    key's previous access, _COLD for a first access.  Under LRU an access
    hits a cache of c slots iff its distance is below c.

    The distinct keys accessed between an access and its key's previous
    one at p number the positions in between less the stale ones, those of
    a key accessed again before the access: one per earlier reuse whose own
    previous access is after p.  _greater_before counts them for every
    reuse at once.
    """
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    repeat = keys[order[1:]] == keys[order[:-1]]
    distances = np.full(n, _COLD, dtype=np.int32)  # first the previous access's position
    distances[order[1:][repeat]] = order[:-1][repeat]
    del order, repeat  # freed before _greater_before's levels
    reused = np.flatnonzero(distances != _COLD).astype(np.int32)
    before = distances[reused]
    distances[reused] = reused - before - 1 - _greater_before(before)
    return distances


class ProbeCache:
    """What the probes of one capacity search or sweep share, and the one
    trace that compare_policies replays through each policy.

    It holds one generated trace per seed, as arrays with a tenant code and
    an item per txn and no Python object per txn (see hold), and the series
    of each distinct (policy, capacity, layout sizes, length, seed,
    sample_every) probe already run (see probe), so a probe repeated for
    another target or by the binary search runs no simulation.  For LRU
    probes a seed's trace entry also holds two LRU stack distances of each
    of its events, from _stack_distances' numpy pass (no loop per access; a
    wavelet matrix, Claude et al. 2015): the global one, from one pass over
    the whole trace, and the tenant's, from one pass over the trace in
    tenant order.  Every LRU probe is one loop over them, _counted_rates, in
    place of a store.  They are computed on the first probe that needs them
    and go with the trace entry, so a longer trace, generated afresh,
    computes them afresh; a capacity search holds each seed's trace at its
    longest probe's length before its first probe.

    A cache serves the probes of one tenant set and one base scenario only.
    It keeps the workloads of its first trace and the fields its probes are
    not keyed on (tenants, replacement, window, EWMA weight, strategy) of
    its first probe, and raises a ValueError for a trace or probe that
    differs; each is compared element by element, identity first, so a
    sweep's check is a few identity tests.  It compares and hashes by
    identity.
    """

    __slots__ = ("traces", "series", "workloads", "ids", "base")

    def __init__(self):
        # seed -> [length requested, tenant codes, items, stack distances or None]
        self.traces: dict = {}
        # probe key -> {tenant: final-quarter EWMA series}
        self.series: dict = {}
        self.workloads: list | None = None
        self.ids: list | None = None  # the workloads' tenant ids, sorted: what codes index
        self.base: tuple | None = None

    def hold(self, workloads: Sequence[TenantWorkload], total_txns: int, seed: int) -> list:
        """seed's trace entry, generated afresh when shorter than total_txns.
        workloads must equal those of the cache's first trace.

        The entry is [length requested, codes, items, stack distances or
        None]: per event the index of its tenant in the sorted tenant ids
        (int32) and its item (int64), 12 bytes, in arrays of the stream's
        own length, preallocated and filled from _chunks' arrays chunk by
        chunk.
        """
        workloads = list(workloads)
        if self.workloads is None:
            self.workloads, self.ids = workloads, sorted(w.tenant_id for w in workloads)
        elif workloads != self.workloads:
            raise ValueError("this ProbeCache holds the traces of other workloads")
        cached = self.traces.get(seed)
        if cached is None or cached[0] < total_txns:
            n = _stream_length(workloads, total_txns)
            codes, items = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int64)
            index = {k: c for c, k in enumerate(self.ids)}
            for txns, active, local, drawn in _chunks(workloads, total_txns, seed):
                chunk = slice(txns.start, txns.stop)
                codes[chunk] = np.array([index[k] for k in active], dtype=np.int32)[local]
                items[chunk] = drawn
            cached = self.traces[seed] = [total_txns, codes, items, None]
        return cached

    def trace(
        self, workloads: Sequence[TenantWorkload], total_txns: int, seed: int
    ) -> Iterator[tuple[int, int, int]]:
        """The first total_txns events of seed's stream, fewer if it ends early,
        as (txn, tenant_id, item) tuples.

        generate_stream is prefix-consistent per seed, so the stream of the
        longest length requested so far serves every shorter probe.  It is
        kept under that length, not its event count, so a stream that ends
        early is generated once.  Nothing is generated until the first event
        is asked for.  Each tuple is built from the held arrays as it is
        asked for, by memoryviews over them: the tenant id objects of the
        workloads and plain int items.
        """
        _, codes, items, _ = self.hold(workloads, total_txns, seed)
        yield from zip(range(total_txns), map(self.ids.__getitem__, memoryview(codes)),
                       memoryview(items))

    def stack_distances(
        self, workloads: Sequence[TenantWorkload], total_txns: int, seed: int
    ) -> tuple:
        """(tenant ids, codes, global, per-tenant distances) of seed's held trace.

        codes[i] is the index in tenant ids of event i's tenant: the held
        codes themselves, so the keys are built in numpy from the held
        arrays.  A prefix of the trace has the prefix of its distances, so
        the arrays of the longest trace held serve every shorter probe.  In
        tenant order the keys between two accesses of a key are all of its
        tenant, so one pass over the keys in that order gives every tenant's
        distances.
        """
        entry = self.hold(workloads, total_txns, seed)
        if entry[3] is None:
            _, codes, items, _ = entry
            keys = codes.astype(np.int64) * (int(items.max(initial=0)) + 1) + items
            global_d = _stack_distances(keys)
            order = np.argsort(codes, kind="stable")
            tenant_d = np.empty_like(global_d)
            tenant_d[order] = _stack_distances(keys[order])
            entry[3] = (self.ids, codes, global_d, tenant_d)
        return entry[3]

    def probe(self, s: Scenario) -> dict:
        """Each tenant sampled in the final quarter of the probe s, mapped to
        its EWMA hit rate at each final-quarter sample that includes it, in
        sample order: those of run_scenario(s, trace, sample_from) on
        s.seed's held trace from three quarters of s.total_txns on, bit for
        bit, memoised by (policy, capacity, layout sizes, total_txns, seed,
        sample_every).

        s is validated as run_scenario validates it, before any trace is
        held; a probe whose other fields differ from the first probe's
        raises a ValueError.  The replacement alone picks the engine.  An
        LRU probe is _counted_rates' one loop over the stack distances of
        the held trace.  FCFS is not a stack algorithm, so an FCFS probe
        calls run_scenario, on insertion stamps.
        """
        base = (tuple(s.tenants), s.replacement, s.window_length, s.ewma_weight, s.strategy)
        if self.base is not None and base != self.base:
            raise ValueError("this ProbeCache holds the probes of other tenants or another base")
        layout = s.layout
        sizes = None if layout is None else (layout.sc_size, *sorted(layout.dc_sizes.items()))
        key = (s.policy, s.capacity, sizes, s.total_txns, s.seed, s.sample_every)
        if key not in self.series:
            s.validate()
            self.base = base
            n, sample_from = s.total_txns, s.total_txns * 3 // 4
            workloads = [t.workload for t in s.tenants]
            if s.replacement == LRU:
                pairs = _counted_rates(s, self.stack_distances(workloads, n, s.seed), sample_from)
            else:
                records = run_scenario(s, trace=self.trace(workloads, n, s.seed),
                                       sample_from=sample_from)
                pairs = ((k, t.ewma_hit_rate) for rec in records for k, t in rec.tenants.items())
            series: dict = {}
            for k, rate in pairs:
                series.setdefault(k, []).append(rate)
            self.series[key] = series
        return self.series[key]


def _counted_rates(s: Scenario, distances: tuple, sample_from: int) -> Iterator[tuple]:
    """(tenant, EWMA hit rate) at each final-quarter sample of an LRU probe
    s, in ProbeCache.probe's order, from the stack distances of its held
    trace: run_scenario's, bit for bit.

    global and static are stack algorithms with no donor ranking, so each
    access's hit is known before the loop: its global distance is below the
    capacity (global), or its tenant distance below its tenant's DC size
    (static).  Each window's hits are summed per tenant in numpy.

    Under the other policies tenant k's resident items are always the n_k =
    dc_k + sc_k most recent distinct items of its substream, and every
    victim is its owner's least recent item (see RecencyLists.serve).  So slot
    counts alone decide each access, in hybrid_insert's order, and the loop
    counts them: a hit iff its tenant distance is below n_k; else a free DC
    slot (dc_k + 1); else a free SC slot (sc_k + 1); else, with no SC, the
    tenant's own oldest DC item goes and the counts stay; else pick_donor's
    donor gives one SC slot to the tenant, which changes nothing when the
    donor is the tenant; a DonorCursor over the SC counts keeps that donor
    and moves the slot.

    One loop does run_scenario's accounting around those accesses.  The
    donor ranking changes only after the access that closes a window and
    before the access at an activation_timeline change, and samples are
    read after the access at their txn.  All three kinds of stop are known
    before the loop from the trace's tenant codes, found by _stops as
    run_scenario's driver finds a chunk's (here the one chunk is the whole
    held trace), so the accesses between two of them run with no check,
    and only under a ranked policy.  At each, in run_scenario's order:
    the closing tenant's window rate is folded into its EWMA with
    ewma_update, as HitRateTracker does, and under a ranked policy the
    donor account, a Donors over tenant codes as
    run_scenario keeps one over tenant ids, is told of the close with the
    tenant's slots and EWMA; a sample yields the EWMA (0.0 before a first
    window) of each active tenant in id order; a change is told to the
    account with each arrival's EWMA.  Each event returns the new ranking.
    The held trace is the scenario's own stream, so no event is of a tenant
    that has not arrived.
    """
    ids, codes, global_d, tenant_d = distances
    codes = codes[: s.total_txns]
    n, m = len(codes), len(ids)
    layout = s.resolved_layout()
    window, weight, every = s.window_length, s.ewma_weight, s.sample_every
    index = {k: c for c, k in enumerate(ids)}
    softs = {index[t.workload.tenant_id]: t.requirement.soft for t in s.tenants}
    ranked = s.policy not in ("global", "static")
    donors = Donors(softs, s.strategy, s.policy.endswith("selfish"), ranked)
    # per tenant code: resident items, hits in the open window, EWMA and free
    # DC slots; SC slots in a dict, under a DonorCursor once SC is full
    held, hits, ewma = [0] * m, [0] * m, [None] * m
    dc_free = [layout.dc_sizes.get(k, 0) for k in ids]
    sc = dict.fromkeys(range(m), 0)
    take = DonorCursor(sc).take
    sc_size = sc_free = layout.sc_size

    # under global and static an access hits iff its distance is below its
    # tenant's limit, so each window's hits are known before the loop, in
    # the order of its tenant's closes; a ranked policy's loop counts its own
    mine = [np.flatnonzero(codes == c) for c in range(m)]
    known = [repeat(0)] * m
    if not ranked:
        dist, limits = ((global_d, [s.capacity] * m) if s.policy == "global" else
                        (tenant_d, dc_free))
        for c, (at, limit) in enumerate(zip(mine, limits)):
            at = at[: len(at) - len(at) % window]
            known[c] = iter((dist[at] < limit).reshape(-1, window).sum(1).tolist())
    # the stops of the one chunk, the whole held trace, whose txns are its
    # positions; an idle stretch's two timeline entries share a txn, and
    # the later one wins
    timeline = activation_timeline([t.workload for t in s.tenants], s.total_txns)
    changes = {txn: {index[k] for k in now} for txn, _, now in timeline}
    stops, closes, samples, applied = _stops(range(n), mine, [0] * m, window, every,
                                             sample_from, sorted(changes))

    ranking = donors.ranking
    active: list = []  # the active tenant codes, in id order
    accesses = zip(codes.tolist(), tenant_d[:n].tolist()) if ranked else None
    start = 0
    for stop in stops:
        if ranked:
            for c, d in islice(accesses, stop + 1 - start):
                h = held[c]
                if d < h:
                    hits[c] += 1
                elif dc_free[c]:
                    dc_free[c] -= 1
                    held[c] = h + 1
                elif sc_free:
                    sc_free -= 1
                    sc[c] += 1
                    held[c] = h + 1
                elif sc_size:
                    donor = take(ranking, c)
                    if donor != c:
                        held[donor] -= 1
                        held[c] = h + 1
            start = stop + 1
        if stop in closes:
            c = closes[stop]
            ewma[c] = ewma_update(ewma[c], (hits[c] + next(known[c])) / window, weight)
            hits[c] = 0
            if ranked:
                ranking = donors.closed(c, held[c], ewma[c])
        if stop in samples:
            for k in active:
                yield ids[k], ewma[k] or 0.0  # 0.0 before a first window
        for txn in applied[stop] if stop in applied else ():
            ranking = donors.change(changes[txn], lambda c: ewma[c] or 0.0)
            active = sorted(donors.active)


def _mean(rates: Sequence[float]) -> float:
    """The mean of rates, added left to right; builtin sum() may compensate."""
    total = 0.0
    for rate in rates:
        total += rate
    return total / len(rates)


MIN_PROBE_TXNS = 40_000  # the shortest probe, in txns
PROBE_TXNS_PER_SLOT = 4  # a probe's txns per slot of capacity, above the shortest
# most txns a capacity search holds per seed (12 bytes each, 192 MiB), so that
# an upper past it is refused before anything is held
MAX_HELD_TXNS = 2**24


def probe_txns(capacity: int, min_txns: int, txns_per_slot: int) -> int:
    """The length of a capacity probe at capacity slots."""
    return max(min_txns, txns_per_slot * capacity)


def meets_target(
    policy: str,
    tenants: Sequence[TenantSpec],
    capacity: int,
    target: float,
    seeds: Sequence[int],
    min_txns: int = MIN_PROBE_TXNS,
    txns_per_slot: int = PROBE_TXNS_PER_SLOT,
    base: Scenario | None = None,
    cache: ProbeCache | None = None,
) -> bool:
    """True iff, for all seeds, every tenant sampled in the final quarter of
    the probe has a mean EWMA hit rate there of at least target.

    A tenant with no sample in the final quarter, one that has departed, is
    not judged; a probe that samples no tenant at all raises a
    ConfigurationError naming the tenants.  Each probe is base (a default
    Scenario when None) with the probe's policy, capacity, tenants, derived
    layout, length, seed and sampling; everything else, replacement, tracker
    and sharing strategy included, is base's.  Only the final quarter's
    samples are built.  With a cache, each seed's trace is generated once and
    each distinct probe runs once across the calls that share it.  A
    capacity whose derived layout leaves some tenant no slot, a static split
    over more tenants than slots, meets no target and runs nothing.

    Each probe's series come from ProbeCache.probe, which validates the
    probe scenario first, so a bad one raises the same ConfigurationError
    as run_scenario, and which runs no store.
    """
    total_txns = probe_txns(capacity, min_txns, txns_per_slot)
    layout = derive_layout(policy, capacity, [t.workload.tenant_id for t in tenants])
    if not layout.sc_size and not all(layout.dc_sizes.values()):
        return False
    if base is None:
        base = Scenario(capacity=capacity, policy=policy, tenants=tenants)
    if cache is None:
        cache = ProbeCache()
    for seed in seeds:
        scenario = replace(
            base,
            policy=policy,
            capacity=capacity,
            tenants=tenants,
            layout=layout,
            total_txns=total_txns,
            seed=seed,
            sample_every=max(1, total_txns // 200),
        )
        series = cache.probe(scenario)
        if not series:
            raise ConfigurationError(
                "tenants", f"no tenant is active in the final quarter of a {total_txns}-txn probe"
            )
        if any(_mean(rates) < target for rates in series.values()):
            return False
    return True


DEFAULT_RESOLUTION = 50  # the capacity search's grid step, in slots


def min_slots_for_target(
    policy: str,
    tenants: Sequence[TenantSpec],
    target: float,
    lower: int = 50,
    upper: int = 40_000,
    resolution: int = DEFAULT_RESOLUTION,
    trials: int = 3,
    seed: int = 0,
    cache: ProbeCache | None = None,
    min_txns: int = MIN_PROBE_TXNS,
    txns_per_slot: int = PROBE_TXNS_PER_SLOT,
    **run_kwargs,
) -> int:
    """Smallest capacity (on the resolution grid) meeting the target hit rate.

    lower is rounded down onto the grid, to at least resolution, and upper
    up.  lower, the smallest capacity searched, is probed first and returned
    when it meets the target.  Otherwise upper must meet it, or an
    InfeasibleTargetError is raised, and a binary search between the two
    finds the answer.  Every probe goes through meets_target with one
    ProbeCache, the given one or one private to this search.  Before the
    first probe the cache holds each seed's trace at the length of the upper
    probe, the longest, so that no probe's trace is generated twice; an
    upper whose probe is longer than MAX_HELD_TXNS is refused first.
    """
    if not 0.0 <= target < 1.0:
        raise ConfigurationError("target", "must be in [0, 1)")
    if upper < 1:  # it would round onto the grid at 0, below any lower
        raise ConfigurationError("upper", f"{upper} is below 1")
    if lower > upper:
        raise ConfigurationError("upper", f"{upper} is below lower {lower}")
    if resolution < 1:
        raise ConfigurationError("resolution", "must be >= 1")
    if trials < 1:
        raise ConfigurationError("trials", "must be >= 1")
    seeds = [seed + i for i in range(trials)]
    lower = max(resolution, (lower // resolution) * resolution)
    upper = ((upper + resolution - 1) // resolution) * resolution
    held = probe_txns(upper, min_txns, txns_per_slot)
    if held > MAX_HELD_TXNS:
        raise ConfigurationError(
            "upper", f"{upper} slots would hold {held} txns per seed, above {MAX_HELD_TXNS}"
        )
    if cache is None:
        cache = ProbeCache()
    workloads = [t.workload for t in tenants]
    for each in seeds:
        cache.hold(workloads, held, each)

    def ok(capacity: int) -> bool:
        return meets_target(
            policy, tenants, capacity, target, seeds, min_txns, txns_per_slot,
            cache=cache, **run_kwargs,
        )

    if ok(lower):
        return lower
    if not ok(upper):
        raise InfeasibleTargetError(
            f"{policy}: upper bound {upper} slots does not reach {target:.0%}"
        )
    lo, hi = lower, upper  # lo fails, hi meets
    while hi - lo > resolution:
        mid = ((lo + hi) // 2 // resolution) * resolution
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def capacity_sweep(
    tenants: Sequence[TenantSpec],
    targets: Sequence[float],
    policies: Sequence[str],
    **kwargs,
) -> list[CapacitySweepResult]:
    """min_slots_for_target across a target grid, with savings vs the baselines.

    Every target and policy name is checked before the first search starts;
    a hybrid policy is refused, since a probe derives its layout and hybrid
    needs explicit dc_sizes.  All searches share one ProbeCache: each seed's
    trace is generated once (at the longest length asked for so far), and
    each distinct (policy, capacity, seed) probe is simulated once, whichever
    targets ask for it.
    """
    for target in targets:
        if not 0.0 <= target < 1.0:
            raise ConfigurationError("targets", f"{target} is outside [0, 1)")
    _check_policies(policies, [p for p in POLICIES if not p.startswith("hybrid")])
    cache = ProbeCache()
    results: list[CapacitySweepResult] = []
    for target in targets:
        per_policy = {
            policy: min_slots_for_target(policy, tenants, target, cache=cache, **kwargs)
            for policy in policies
        }
        for policy, slots in per_policy.items():
            res = CapacitySweepResult(
                target=target,
                policy=policy,
                min_slots=slots,
                savings_vs_global=(
                    1.0 - slots / per_policy["global"] if "global" in per_policy else None
                ),
                savings_vs_static=(
                    1.0 - slots / per_policy["static"] if "static" in per_policy else None
                ),
            )
            results.append(res)
    return results


def write_sweep_csv(results: Iterable[CapacitySweepResult], out: str | IO[str]) -> None:
    with text_file(out, "w") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r in results:
            sg = "" if r.savings_vs_global is None else f"{r.savings_vs_global:.6f}"
            ss = "" if r.savings_vs_static is None else f"{r.savings_vs_static:.6f}"
            fh.write(f"{r.target:.6f},{r.policy},{r.min_slots},{sg},{ss}\n")


def suggest_dc_size(
    hard: float,
    least_skewed_alpha: float,
    universe: int = DEFAULT_UNIVERSE,
    resolution: int = DEFAULT_RESOLUTION,
    **kwargs,
) -> int:
    """Recommended per-tenant DC size: slots one tenant at the least skewed
    exponent needs to meet the hard requirement on its own."""
    if not 0.0 <= hard < 1.0:
        raise ConfigurationError("hard", "must be in [0, 1)")
    with _reading("alpha"):
        phase = WorkloadPhase(alpha=least_skewed_alpha)
    with _reading("universe"):
        workload = TenantWorkload(tenant_id=0, universe_size=universe, phases=(phase,))
    tenant = TenantSpec(workload=workload, requirement=Requirement(hard=hard, soft=hard))
    return min_slots_for_target(
        "global", [tenant], hard, lower=resolution, resolution=resolution, **kwargs
    )
