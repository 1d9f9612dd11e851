"""Spans and counts for the benchmark's traced mode.

The tracer replaces public functions and ``SlotStore``/``HitRateTracker``
methods on the modules and classes where the simulator looks them up, and
puts the originals back when it is uninstalled.  Nothing under ``src/`` is
edited.  A wrapper whose target no longer exists is skipped and the metrics
that depend on it are reported as absent.

A span is (id, name, start, end, parent id, operation id).  An operation is
one policy replay, one churn run or one sweep cell.  Self time is a span's
duration minus the time covered by its child spans.  Self times and counts
cover every call; only the first SPAN_CAP spans are kept for the JSON file,
so that per-access spans cannot exhaust memory.

RSS growth is measured by ``RssSampler`` in a pass of its own, with no
tracer installed, so that the tracer's span buffer does not count as growth.
"""
from __future__ import annotations

import inspect
import json
import os
from collections import Counter
from time import perf_counter

RSS_EVERY = 100_000
SPAN_CAP = 50_000

SLOTSTORE_METHODS = (
    "__init__",
    "lookup",
    "peek",
    "free_count",
    "insert_into_empty",
    "select_victim",
    "evict_victim",
    "evict",
    "swap",
    "owned",
    "sc_owners",
    "occupied_count",
)


def _rss_mb() -> float | None:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class RssSampler:
    """RSS growth over the traces the simulator consumes.

    Pass a trace handed to ``run_scenario`` through sampled(); install()
    does the same for the traces ``run_scenario`` generates itself.
    """

    def __init__(self):
        self.grown_mb = 0.0
        self.events = 0
        self.absent = False
        self._patch = None

    def sampled(self, trace):
        """Iterate trace, sampling RSS at its start, every RSS_EVERY events and its end.

        The growth booked is the highest sample minus the first.
        """
        samples = [_rss_mb()]
        n = 0
        try:
            for ev in trace:
                n += 1
                if n % RSS_EVERY == 0:
                    samples.append(_rss_mb())
                yield ev
        finally:
            samples.append(_rss_mb())
            if None in samples:
                self.absent = True
            else:
                self.grown_mb += max(samples) - samples[0]
                self.events += n

    def install(self, tc) -> None:
        orig = vars(tc.harness).get("generate_stream")
        if orig is None:
            self.absent = True
            return

        def wrapper(*args, **kwargs):
            return self.sampled(orig(*args, **kwargs))

        self._patch = (tc.harness, orig)
        tc.harness.generate_stream = wrapper

    def uninstall(self) -> None:
        if self._patch is not None:
            owner, orig = self._patch
            owner.generate_stream = orig
            self._patch = None

    def per_100k(self) -> float | None:
        """MB grown per RSS_EVERY events consumed, or None when RSS could not be read."""
        if self.absent:
            return None
        return self.grown_mb * RSS_EVERY / self.events if self.events else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set = set()
        self.op_id = None
        self._stack: list = []
        self._next_span = 0
        self._next_op = 0
        self._patches: list = []
        self._probes: set = set()
        self._generated: dict = {}  # seed -> [events generated, longest call]

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_span += 1
        frame = [name, perf_counter(), 0.0, self._next_span]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id = frame
        dur = end - start
        self.self_s[name] += dur - child_s
        self.calls[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent[3] if parent else None, self.op_id)
            )
        else:
            self.dropped += 1

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, on_error=None, starts_op=False):
        """Replace owner.attr by a span-recording wrapper.

        after(result, args, kwargs) and on_error(exc) add counts; starts_op
        opens a new operation id unless one is already open.
        """
        orig = vars(owner).get(attr)
        if orig is None:
            self.absent.add(name)
            return
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            opened = starts_op and self.op_id is None
            if opened:
                self._next_op += 1
                self.op_id = self._next_op
            frame = enter(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                leave(frame)
                if opened:
                    self.op_id = None
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str):
        """Wrap a trace generator: each next() is a span."""
        orig = vars(owner).get(attr)
        if orig is None:
            self.absent.add(name)
            return
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seed = bound.arguments.get("seed")
            it = orig(*args, **kwargs)

            def spans():
                n = 0
                try:
                    while True:
                        frame = self.enter(name)
                        try:
                            ev = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.leave(frame)
                        n += 1
                        yield ev
                finally:
                    gen = self._generated.setdefault(seed, [0, 0])
                    gen[0] += n
                    gen[1] = max(gen[1], n)

            return spans()

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def count_if(self, test, key: str):
        """An after-hook counting the calls whose result passes test."""

        def after(result, args, kwargs):
            if test(result):
                self.counts[key] += 1

        return after

    def install(self, tc) -> None:
        harness, sharing, cache_core, metrics, workload = (
            tc.harness,
            tc.sharing,
            tc.cache_core,
            tc.metrics,
            tc.workload,
        )
        wrap = self.wrap

        def outcome(result, args, kwargs):
            self.counts[f"harness.outcome.{result.kind}"] += 1

        meets_target = vars(harness).get("meets_target")
        probe_sig = inspect.signature(meets_target) if meets_target else None

        def probe(result, args, kwargs):
            bound = probe_sig.bind(*args, **kwargs)
            key = {k: v for k, v in bound.arguments.items() if k not in ("target", "tenants")}
            self._probes.add(_freeze(key))

        full_error = vars(cache_core).get("RegionFullError")
        if full_error is None:
            self.absent.add("cache_core.RegionFullError")

        def full(exc):
            if full_error is not None and isinstance(exc, full_error):
                self.counts["cache_core.SlotStore.insert_into_empty.full"] += 1

        wrap(harness, "run_scenario", "harness.run_scenario", starts_op=True)
        wrap(harness, "min_slots_for_target", "harness.min_slots_for_target", starts_op=True)
        wrap(harness, "meets_target", "harness.meets_target", after=probe)
        wrap(harness, "write_records_csv", "harness.write_records_csv")
        for owner in (harness, workload):
            self.wrap_generator(owner, "generate_stream", "workload.generate_stream")
        for fn in ("global_insert", "static_insert"):
            wrap(harness, fn, f"cache_core.{fn}", after=outcome)
        for fn in ("maxmin_insert", "hybrid_insert"):
            wrap(harness, fn, f"sharing.{fn}", after=outcome)
        wrap(sharing, "static_insert", "cache_core.static_insert")
        for owner in (harness, sharing):
            wrap(
                owner,
                "selfish_eligible",
                "sharing.selfish_eligible",
                after=self.count_if(lambda r: not r, "sharing.selfish_eligible.refusals"),
            )
        wrap(sharing, "select_victim_tenant", "sharing.select_victim_tenant")
        wrap(sharing, "selfish_select_victim", "sharing.selfish_select_victim")
        wrap(sharing, "predict_hit_rate", "sharing.predict_hit_rate")
        store = vars(cache_core).get("SlotStore")
        for method in SLOTSTORE_METHODS:
            name = f"cache_core.SlotStore.{method}"
            if store is None:
                self.absent.add(name)
            elif method == "lookup":
                wrap(store, method, name, after=self.count_if(bool, f"{name}.hits"))
            elif method == "insert_into_empty":
                wrap(store, method, name, on_error=full)
            else:
                wrap(store, method, name)
        tracker = vars(metrics).get("HitRateTracker")
        if tracker is None:
            self.absent.add("metrics.HitRateTracker.record_access")
        else:
            wrap(
                tracker,
                "record_access",
                "metrics.HitRateTracker.record_access",
                after=self.count_if(lambda r: r is not None, "metrics.windows_closed"),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, list]:
        """Per-layer metrics as {name: (value, unit)}, and the names left absent."""
        store = [f"cache_core.SlotStore.{m}" for m in SLOTSTORE_METHODS]
        victim = ["sharing.select_victim_tenant", "sharing.selfish_select_victim"]
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def selfs(*names):
            return sum(self_s[n] for n in names)

        def ratio(num, den):
            return num / den if den else 1.0

        gen_events = sum(g[0] for g in self._generated.values())
        longest = sum(g[1] for g in self._generated.values())
        specs = [
            ("workload.generate_stream.self_s", "s", ["workload.generate_stream"],
             lambda: self_s["workload.generate_stream"]),
            ("workload.generate_stream.events", "count", ["workload.generate_stream"],
             lambda: gen_events),
            ("workload.regenerated_ratio", "ratio", ["workload.generate_stream"],
             lambda: ratio(gen_events, longest)),
            ("cache_core.self_s", "s", store, lambda: selfs(*store)),
            ("cache_core.baseline_insert.self_s", "s",
             ["cache_core.global_insert", "cache_core.static_insert"],
             lambda: selfs("cache_core.global_insert", "cache_core.static_insert")),
        ]
        for m in ("lookup", "insert_into_empty", "evict_victim", "select_victim", "evict", "swap"):
            name = f"cache_core.SlotStore.{m}"
            specs.append((f"{name}.calls", "count", [name], lambda name=name: calls[name]))
        lookup = "cache_core.SlotStore.lookup"
        insert = "cache_core.SlotStore.insert_into_empty"
        specs += [
            (f"{lookup}.hits", "count", [lookup], lambda: counts[f"{lookup}.hits"]),
            (f"{insert}.full", "count", [insert, "cache_core.RegionFullError"],
             lambda: counts[f"{insert}.full"]),
            ("sharing.self_s", "s", ["sharing.maxmin_insert", "sharing.hybrid_insert"],
             lambda: selfs("sharing.maxmin_insert", "sharing.hybrid_insert")),
            # every victim choice ends in exactly one select_victim_tenant call
            ("sharing.victim_choice.calls", "count", victim,
             lambda: calls["sharing.select_victim_tenant"]),
            ("sharing.victim_choice.self_s", "s", victim, lambda: selfs(*victim)),
            ("sharing.selfish_eligible.calls", "count", ["sharing.selfish_eligible"],
             lambda: calls["sharing.selfish_eligible"]),
            ("sharing.selfish_eligible.refusals", "count", ["sharing.selfish_eligible"],
             lambda: counts["sharing.selfish_eligible.refusals"]),
            ("sharing.predict_hit_rate.self_s", "s", ["sharing.predict_hit_rate"],
             lambda: self_s["sharing.predict_hit_rate"]),
            ("metrics.HitRateTracker.record_access.calls", "count",
             ["metrics.HitRateTracker.record_access"],
             lambda: calls["metrics.HitRateTracker.record_access"]),
            ("metrics.HitRateTracker.record_access.self_s", "s",
             ["metrics.HitRateTracker.record_access"],
             lambda: self_s["metrics.HitRateTracker.record_access"]),
            ("metrics.windows_closed", "count", ["metrics.HitRateTracker.record_access"],
             lambda: counts["metrics.windows_closed"]),
            ("harness.run_scenario.self_s", "s", ["harness.run_scenario"],
             lambda: self_s["harness.run_scenario"]),
        ]
        inserts = ["cache_core.global_insert", "cache_core.static_insert",
                   "sharing.maxmin_insert", "sharing.hybrid_insert"]
        for kind in ("hit", "inserted", "replaced"):
            key = f"harness.outcome.{kind}"
            specs.append((key, "count", inserts, lambda key=key: counts[key]))
        specs += [
            ("harness.meets_target.calls", "count", ["harness.meets_target"],
             lambda: calls["harness.meets_target"]),
            ("harness.meets_target.distinct_ratio", "ratio", ["harness.meets_target"],
             lambda: ratio(len(self._probes), calls["harness.meets_target"])),
            ("harness.write_records_csv.self_s", "s", ["harness.write_records_csv"],
             lambda: self_s["harness.write_records_csv"]),
        ]
        out, absent = {}, []
        for name, unit, sources, value in specs:
            if any(s in self.absent for s in sources):
                absent.append(name)
            else:
                out[name] = (value(), unit)
        return out, absent

    def write_spans(self, path, **meta) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(meta)
        doc["fields"] = ["id", "name", "start_s", "end_s", "parent", "op"]
        doc["dropped"] = self.dropped
        doc["spans"] = [
            [sid, name, start - t0, end - t0, parent, op]
            for sid, name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
