import io
import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import RegionLayout, UnknownTenantError
from tenantcache.harness import (
    CSV_HEADER,
    POLICIES,
    SWEEP_CSV_HEADER,
    CapacitySweepResult,
    ConfigurationError,
    InfeasibleTargetError,
    ProbeCache,
    SampleRecord,
    Scenario,
    TenantSample,
    TenantSpec,
    capacity_sweep,
    compare_policies,
    derive_layout,
    meets_target,
    min_slots_for_target,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    suggest_dc_size,
    write_records_csv,
    write_sweep_csv,
)
from tenantcache.metrics import Requirement, check_objectives
from tenantcache.sharing import SharingStrategy
from tenantcache.workload import (
    TenantWorkload,
    WorkloadPhase,
    activation_timeline,
    generate_stream,
)

FAST = dict(min_txns=4_000, txns_per_slot=4)

# what a faked run_scenario returns: one sampled record of one tenant
ONE_RECORD = [
    SampleRecord(txn=0, tenants={1: TenantSample(1.0, 1.0, 0, 1, 0.7, False)}, min_gap=0.7)
]


def tenant(tid, universe=300, alpha=1.0, soft=0.3, hard=0.0, **kw):
    return TenantSpec(
        workload=TenantWorkload(
            tenant_id=tid, universe_size=universe, phases=(WorkloadPhase(alpha),), **kw
        ),
        requirement=Requirement(hard=hard, soft=soft),
    )


def small_scenario(policy="maxmin_fair", capacity=64, **kw):
    defaults = dict(
        capacity=capacity,
        policy=policy,
        tenants=[tenant(1), tenant(2)],
        total_txns=4_000,
        sample_every=500,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenarioValidation:
    def test_valid_scenario_passes(self):
        small_scenario().validate()

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(policy="bogus"), "policy"),
            (dict(capacity=0), "capacity"),
            (dict(tenants=[]), "tenants"),
            (dict(total_txns=-1), "total_txns"),
            (dict(sample_every=0), "sample_every"),
            (dict(ewma_weight=0.0), "ewma_weight"),
            (dict(replacement="mru"), "replacement"),
        ],
    )
    def test_bad_field_named_in_error(self, kw, field):
        with pytest.raises(ConfigurationError) as exc:
            small_scenario(**kw).validate()
        assert exc.value.field_name == field

    def test_duplicate_tenant_ids(self):
        with pytest.raises(ConfigurationError):
            small_scenario(tenants=[tenant(1), tenant(1)]).validate()

    def test_layout_capacity_mismatch(self):
        with pytest.raises(ConfigurationError) as exc:
            small_scenario(layout=RegionLayout({}, 63)).validate()
        assert exc.value.field_name == "layout"

    def test_global_rejects_dedicated_regions(self):
        layout = RegionLayout({1: 10, 2: 10}, 44)
        with pytest.raises(ConfigurationError):
            small_scenario(policy="global", layout=layout).validate()

    def test_static_rejects_shared_region(self):
        layout = RegionLayout({1: 30, 2: 30}, 4)
        with pytest.raises(ConfigurationError):
            small_scenario(policy="static", layout=layout).validate()

    def test_hybrid_requires_dc_entry_per_tenant(self):
        layout = RegionLayout({1: 20}, 44)
        with pytest.raises(ConfigurationError):
            small_scenario(policy="hybrid_fair", layout=layout).validate()

    def test_hybrid_without_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario(policy="hybrid_fair").validate()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# near-valid values reach the deeper checks; any JSON value probes the conversions
numbers = st.integers(-2, 80) | st.floats(-0.5, 1.5) | json_values


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields) | json_values


tenant_docs = _optional(
    tenant_id=numbers,
    universe_size=numbers,
    phases=st.lists(_optional(alpha=numbers, start_txn=numbers), max_size=3) | json_values,
    active_from=numbers,
    active_until=numbers,
    weight=numbers,
    requirement=_optional(hard=numbers, soft=numbers),
)
config_docs = st.fixed_dictionaries(
    {},
    optional={
        "capacity": numbers,
        "policy": st.sampled_from(POLICIES) | json_values,
        "tenants": st.lists(tenant_docs, max_size=3) | json_values,
        "layout": _optional(
            dc_sizes=st.dictionaries(st.sampled_from(["1", "2", "x"]), numbers, max_size=2)
            | json_values,
            sc_size=numbers,
        ),
        "strategy": _optional(loss_horizon=numbers, history_len=numbers),
        "replacement": st.sampled_from(["lru", "fcfs", "mru"]) | json_values,
        "total_txns": numbers,
        "window_length": numbers,
        "ewma_weight": numbers,
        "seed": numbers,
        "sample_every": numbers,
    },
) | json_values.filter(lambda v: not isinstance(v, str))  # a string names a file


@settings(max_examples=400, deadline=None)
@given(config_docs, st.booleans())
def test_any_json_document_gives_a_scenario_or_a_configuration_error(doc, as_text):
    if as_text and isinstance(doc, (dict, list)):
        doc = json.dumps(doc)
    try:
        scenario = scenario_from_json(doc)
    except ConfigurationError:
        return
    assert isinstance(scenario, Scenario)


class TestDeriveLayout:
    def test_global_is_all_shared(self):
        layout = derive_layout("global", 100, [1, 2])
        assert layout.sc_size == 100 and not layout.dc_sizes

    def test_static_splits_equally(self):
        layout = derive_layout("static", 100, [1, 2])
        assert layout.dc_sizes == {1: 50, 2: 50} and layout.sc_size == 0

    def test_hybrid_passes_base_through(self):
        base = RegionLayout({1: 20, 2: 20}, 60)
        assert derive_layout("hybrid_fair", 100, [1, 2], base) is base


class TestJsonConfig:
    def test_roundtrip(self):
        s = small_scenario(
            policy="hybrid_selfish",
            layout=RegionLayout({1: 10, 2: 10}, 44),
            seed=17,
        )
        doc = scenario_to_json(s)
        rebuilt = scenario_from_json(doc)
        assert scenario_to_json(rebuilt) == doc

    def test_accepts_json_text_and_file(self, tmp_path):
        doc = scenario_to_json(small_scenario())
        text = json.dumps(doc)
        from_text = scenario_from_json(text)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        from_file = scenario_from_json(str(path))
        assert scenario_to_json(from_text) == scenario_to_json(from_file) == doc

    def test_strategy_mode_key_ignored(self):
        doc = scenario_to_json(small_scenario(policy="maxmin_fair"))
        assert "mode" not in doc["strategy"]
        with_mode = json.loads(json.dumps(doc))
        with_mode["strategy"]["mode"] = "selfish"
        assert scenario_from_json(with_mode) == scenario_from_json(doc)

    def test_missing_capacity_named(self):
        with pytest.raises(ConfigurationError) as exc:
            scenario_from_json({"policy": "global", "tenants": [{"tenant_id": 1}]})
        assert exc.value.field_name == "capacity"

    def test_tenant_defaults_fill_in(self):
        s = scenario_from_json(
            {"capacity": 10, "policy": "global", "tenants": [{"tenant_id": 1}], "total_txns": 0}
        )
        w = s.tenants[0].workload
        assert w.universe_size == 100_000 and w.weight == 1
        assert s.tenants[0].requirement.soft == 0.0
        # every absent field takes its dataclass's own default
        minimal = {"capacity": 10, "policy": "global", "tenants": [{"tenant_id": 1}]}
        assert scenario_from_json(minimal) == Scenario(
            capacity=10,
            policy="global",
            tenants=[TenantSpec(TenantWorkload(tenant_id=1), Requirement())],
            strategy=SharingStrategy(),
        )
        hybrid = {**minimal, "policy": "hybrid_fair", "capacity": 4}
        hybrid["layout"] = {"dc_sizes": {"1": 4}}
        assert scenario_from_json(hybrid).layout == RegionLayout({1: 4})
        shared = {**minimal, "layout": {"sc_size": 10}}
        assert scenario_from_json(shared).layout == RegionLayout(sc_size=10)

    def test_a_field_type_without_a_reader_fails_when_its_table_is_built(self):
        from dataclasses import dataclass

        from tenantcache import harness

        @dataclass
        class Tagged:
            tags: frozenset = frozenset()

        with pytest.raises(TypeError, match="no JSON reader"):
            harness._table(Tagged)


unit_floats = st.floats(0.0, 1.0)


@st.composite
def valid_scenarios(draw):
    ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    tenants = []
    for tid in ids:
        starts = sorted(draw(st.sets(st.integers(1, 10_000), max_size=3)))
        phases = [WorkloadPhase(draw(st.floats(0.0, 3.0)), start) for start in [0, *starts]]
        active_from = draw(st.integers(0, 1_000))
        active_until = draw(st.none() | st.integers(active_from + 1, 20_000))
        hard, soft = sorted(draw(st.tuples(unit_floats, unit_floats)))
        workload = TenantWorkload(
            tenant_id=tid,
            universe_size=draw(st.integers(1, 10**6)),
            phases=phases,
            active_from=active_from,
            active_until=active_until,
            weight=draw(st.integers(1, 9)),
        )
        tenants.append(TenantSpec(workload, Requirement(hard=hard, soft=soft)))
    policy = draw(st.sampled_from(POLICIES))
    if policy.startswith("hybrid"):
        dc_sizes = {k: draw(st.integers(0, 20)) for k in ids}
        layout = RegionLayout(dc_sizes, draw(st.integers(1, 20)))
    elif not draw(st.booleans()):
        layout = None
    elif policy == "static":
        layout = RegionLayout({k: draw(st.integers(1, 20)) for k in ids}, 0)
    else:
        layout = RegionLayout({}, draw(st.integers(1, 60)))
    capacity = draw(st.integers(len(ids), 100)) if layout is None else layout.capacity
    return Scenario(
        capacity=capacity,
        policy=policy,
        tenants=tenants,
        layout=layout,
        total_txns=draw(st.integers(0, 10**6)),
        window_length=draw(st.integers(1, 1_000)),
        ewma_weight=draw(st.floats(0.0, 1.0, exclude_min=True)),
        strategy=SharingStrategy(
            loss_horizon=draw(st.integers(1, 500)), history_len=draw(st.integers(2, 50))
        ),
        replacement=draw(st.sampled_from(["lru", "fcfs"])),
        seed=draw(st.integers(0, 2**32)),
        sample_every=draw(st.integers(1, 10_000)),
    )


@settings(max_examples=300, deadline=None)
@given(valid_scenarios())
def test_json_round_trip(s):
    doc = scenario_to_json(s)
    rebuilt = scenario_from_json(json.dumps(doc))
    assert scenario_to_json(rebuilt) == doc
    assert rebuilt == s


class TestRunScenario:
    def test_zero_txns_empty_records(self):
        assert run_scenario(small_scenario(total_txns=0)) == []

    def test_sample_cadence_and_ordering(self):
        records = run_scenario(small_scenario())
        assert [r.txn for r in records] == [499, 999, 1499, 1999, 2499, 2999, 3499, 3999]
        for r in records:
            assert list(r.tenants) == sorted(r.tenants)

    def test_slot_accounting_never_exceeds_capacity(self):
        for policy in ("global", "static", "maxmin_fair"):
            records = run_scenario(small_scenario(policy=policy))
            for r in records:
                total = sum(t.dc_slots + t.sc_slots for t in r.tenants.values())
                assert total <= 64

    def test_hybrid_respects_dedicated_sizes(self):
        layout = RegionLayout({1: 10, 2: 10}, 44)
        records = run_scenario(small_scenario(policy="hybrid_fair", layout=layout))
        for r in records:
            for k, t in r.tenants.items():
                assert t.dc_slots <= 10

    def test_min_gap_matches_tenant_gaps(self):
        tenants = [
            tenant(1, soft=0.5, hard=0.45),
            tenant(2, soft=0.4, hard=0.3, active_until=2_000),
            tenant(3, universe=100, soft=0.7, hard=0.6, active_from=1_500),
        ]
        reqs = {t.workload.tenant_id: t.requirement for t in tenants}
        hybrid = RegionLayout(dc_sizes={1: 8, 2: 8, 3: 8}, sc_size=40)
        for policy in POLICIES:
            layout = derive_layout(policy, 64, [1, 2, 3], hybrid)
            s = small_scenario(policy=policy, tenants=tenants, layout=layout, sample_every=100)
            records = run_scenario(s)
            # tenant 2 departs and tenant 3 arrives late
            assert set(records[0].tenants) == {1, 2} and set(records[-1].tenants) == {1, 3}
            flags = set()
            for r in records:
                for k, t in r.tenants.items():
                    assert t.gap == t.ewma_hit_rate - reqs[k].soft, (policy, r.txn, k)
                    flags.add(t.hard_violation)
                # a record's hard flags and G are check_objectives, the
                # objective's public definition, over its own smoothed rates
                rates = {k: t.ewma_hit_rate for k, t in r.tenants.items()}
                flagged = {k: t.hard_violation for k, t in r.tenants.items()}
                assert (flagged, r.min_gap) == check_objectives(rates, reqs, rates), policy
            assert flags == {False, True}, policy

    def test_trace_past_the_timeline_gives_empty_samples(self):
        # a replayed trace may outrun the scenario's own activation timeline
        trace = list(generate_stream([tenant(1).workload], 1_000, seed=0))
        s = small_scenario(tenants=[tenant(1, active_until=500)], total_txns=1_000)
        records = run_scenario(s, trace=trace)
        assert [len(r.tenants) for r in records] == [1, 0]
        assert records[-1].min_gap == float("inf")

    def test_departed_tenant_drops_out_of_samples(self):
        s = small_scenario(
            tenants=[tenant(1), tenant(2, active_until=2_000)],
        )
        records = run_scenario(s)
        assert set(records[0].tenants) == {1, 2}
        assert set(records[-1].tenants) == {1}

    def test_hard_violation_flagged(self):
        # one slot cannot hold a 300-item universe at 90%
        s = small_scenario(policy="global", capacity=1, tenants=[tenant(1, hard=0.9, soft=0.9)])
        records = run_scenario(s)
        assert records[-1].tenants[1].hard_violation

    def test_deterministic_csv_output(self):
        bufs = []
        for _ in range(2):
            out = io.StringIO()
            write_records_csv(run_scenario(small_scenario(seed=13)), out)
            bufs.append(out.getvalue())
        assert bufs[0] == bufs[1]

    def test_records_are_slotted(self):
        # a run keeps one record per sample and one tenant sample per active
        # tenant, so neither carries a per-instance __dict__
        rec = run_scenario(small_scenario())[-1]
        assert not hasattr(rec, "__dict__")
        assert not any(hasattr(t, "__dict__") for t in rec.tenants.values())

    @pytest.mark.parametrize("replacement", ["lru", "fcfs"])
    def test_unchanged_samples_are_shared(self, replacement):
        # sampled every txn, a tenant's fields change only on its own misses
        # and window closes, so most records repeat its last sample object
        s = small_scenario(sample_every=1, total_txns=2_000, replacement=replacement)
        records = run_scenario(s)
        pairs = [(a.tenants[k], b.tenants[k]) for a, b in zip(records, records[1:])
                 for k in a.tenants.keys() & b.tenants.keys()]
        shared = [a for a, b in pairs if a is b]
        assert len(shared) > len(pairs) // 2


    @pytest.mark.parametrize("policy", POLICIES)
    def test_unknown_tenant_in_a_given_trace_is_named(self, policy):
        # all-SC stores serve any tenant, so the driver must name the stranger too
        hybrid = RegionLayout(dc_sizes={1: 8, 2: 8}, sc_size=48)
        s = small_scenario(policy=policy, layout=derive_layout(policy, 64, [1, 2], hybrid))
        with pytest.raises(UnknownTenantError, match="99"):
            run_scenario(s, trace=[(0, 1, 5), (1, 99, 3)])

    @pytest.mark.parametrize("policy", ["global", "maxmin_fair", "static", "hybrid_fair"])
    def test_insert_looked_up_on_module_at_run_start(self, monkeypatch, policy):
        """No run calls the store's algorithm under any of its names on the
        harness module: the engine of the replacement, recency lists under
        LRU and insertion stamps under FCFS, serves every access, total_txns
        in all, a segment per call."""
        import tenantcache.harness as harness
        from tenantcache.sharing import FifoHeaps, RecencyLists

        calls = {}
        for name in ("global_insert", "static_insert", "maxmin_insert", "hybrid_insert"):
            def counting(*args, name=name, real=getattr(harness, name)):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(harness, name, counting)
        served = {}
        for engine in (RecencyLists, FifoHeaps):
            def serving(store, events, *args, engine=engine, real=engine.serve):
                events = list(events)
                served[engine] = served.get(engine, 0) + len(events)
                return real(store, events, *args)

            monkeypatch.setattr(engine, "serve", serving)
        hybrid = RegionLayout(dc_sizes={1: 8, 2: 8}, sc_size=48)
        for replacement, engine in (("lru", RecencyLists), ("fcfs", FifoHeaps)):
            served.clear()
            layout = derive_layout(policy, 64, [1, 2], hybrid)
            s = small_scenario(policy=policy, layout=layout, replacement=replacement)
            run_scenario(s)
            assert calls == {}
            assert served == {engine: s.total_txns}


class TestActivation:
    """run_scenario's active set is the generator's, idle stretches included."""

    @settings(max_examples=25, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(st.integers(0, 400), st.none() | st.integers(1, 300), st.integers(1, 3)),
            min_size=1,
            max_size=3,
        )
    )
    def test_samples_follow_timeline_under_every_policy(self, windows):
        tenants = [
            tenant(
                i + 1, universe=30, soft=0.4,
                active_from=start,
                active_until=None if span is None else start + span,
                weight=weight,
            )
            for i, (start, span, weight) in enumerate(windows)
        ]
        hybrid = RegionLayout(dc_sizes={t.workload.tenant_id: 4 for t in tenants},
                              sc_size=20 - 4 * len(tenants))
        base = Scenario(capacity=20, policy="hybrid_fair", tenants=tenants, layout=hybrid,
                        total_txns=300, window_length=10, sample_every=7)
        timeline = activation_timeline([t.workload for t in tenants], base.total_txns)
        for policy in POLICIES:
            layout = derive_layout(policy, base.capacity, base.tenant_ids(), hybrid)
            records = run_scenario(replace(base, policy=policy, layout=layout))
            for rec in records:
                active = [ids for t, _, ids in timeline if t <= rec.txn][-1]
                assert sorted(rec.tenants) == list(active), (policy, rec.txn)


class TestCsvFormat:
    def test_records_header(self):
        out = io.StringIO()
        write_records_csv([], out)
        assert out.getvalue() == CSV_HEADER + "\n"
        assert CSV_HEADER.split(",") == [
            "txn", "tenant_id", "ewma_hit_rate", "window_hit_rate",
            "dc_slots", "sc_slots", "gap", "hard_violation", "G",
        ]

    def test_record_row_shape(self):
        out = io.StringIO()
        write_records_csv(run_scenario(small_scenario(total_txns=1_000)), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 9
            int(cells[0]); int(cells[1]); int(cells[4]); int(cells[5])
            assert cells[7] in ("0", "1")
            float(cells[2]); float(cells[3]); float(cells[6]); float(cells[8])

    def test_sweep_header_and_rows(self):
        out = io.StringIO()
        rows = [
            CapacitySweepResult(0.5, "global", 400, 0.0, None),
            CapacitySweepResult(0.5, "maxmin_fair", 300, 0.25, 0.4),
        ]
        write_sweep_csv(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1] == "0.500000,global,400,0.000000,"
        assert lines[2] == "0.500000,maxmin_fair,300,0.250000,0.400000"


class TestComparePolicies:
    def test_single_policy_matches_run_scenario(self):
        base = small_scenario(policy="global")
        direct = run_scenario(base)
        via_compare = compare_policies(base, ["global"])["global"]
        assert direct == via_compare

    def test_policies_share_one_trace(self):
        base = small_scenario(policy="global")
        results = compare_policies(base, ["global", "static", "maxmin_fair"])
        txns = {p: [r.txn for r in recs] for p, recs in results.items()}
        assert txns["global"] == txns["static"] == txns["maxmin_fair"]

    def test_duplicate_policy_identical_output(self):
        base = small_scenario(policy="global")
        results = compare_policies(base, ["maxmin_fair"])
        again = compare_policies(base, ["maxmin_fair"])
        assert results["maxmin_fair"] == again["maxmin_fair"]

    def test_each_policy_matches_its_own_run(self):
        # tenant 2 departs, nobody is active from 1,500 to 2,500 (schedule
        # time), and with no arrival after 5,000 the stream ends at txn 4,000
        base = small_scenario(
            policy="hybrid_fair",
            tenants=[
                tenant(1, active_until=1_500),
                tenant(2, active_until=600, weight=2),
                tenant(3, active_from=2_500, active_until=5_000),
            ],
            layout=RegionLayout(dc_sizes={1: 8, 2: 8, 3: 8}, sc_size=40),
            total_txns=6_000,
            sample_every=250,
        )
        results = compare_policies(base, ["global", "maxmin_selfish", "hybrid_fair"])
        assert results["hybrid_fair"] == run_scenario(base)
        for policy in ("global", "maxmin_selfish"):
            assert results[policy] == run_scenario(replace(base, policy=policy, layout=None))
        assert [r.txn for r in results["global"]][-1] == 3_999
        assert {k for r in results["global"] for k in r.tenants} == {1, 2, 3}


class TestCapacitySearch:
    def test_target_zero_returns_lower_bound(self):
        slots = min_slots_for_target(
            "global", [tenant(1)], 0.0, lower=8, upper=64, resolution=8, trials=1, **FAST
        )
        assert slots == 8

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigurationError):
            min_slots_for_target("global", [tenant(1)], 1.5)

    def test_lower_above_upper_rejected(self, monkeypatch):
        import tenantcache.harness as harness

        monkeypatch.setattr(harness, "run_scenario", lambda s: pytest.fail("a probe ran"))
        with pytest.raises(ConfigurationError) as exc:
            min_slots_for_target("global", [tenant(1)], 0.5, lower=1000, upper=100)
        assert exc.value.field_name == "upper"

    def test_an_upper_past_the_held_bound_is_refused_before_anything_is_held(
        self, monkeypatch
    ):
        import tracemalloc

        def no_hold(*args):
            raise AssertionError("a trace was held")

        monkeypatch.setattr(ProbeCache, "hold", no_hold)
        cache = ProbeCache()
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError) as exc:
                min_slots_for_target("global", [tenant(1)], 0.3, upper=50_000_000, cache=cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.field_name == "upper"
        assert cache.traces == {} and peak < 1_000_000

    def test_the_held_bound_counts_the_upper_probe_rounded_onto_the_grid(self, monkeypatch):
        import tenantcache.harness as harness

        # upper 60 rounds to 64 on a grid of 8: a probe of 4 * 64 = 256 txns
        args = ("global", [tenant(1)], 0.0)
        kw = dict(lower=8, upper=60, resolution=8, trials=1, min_txns=100, txns_per_slot=4)
        monkeypatch.setattr(harness, "MAX_HELD_TXNS", 255)
        with pytest.raises(ConfigurationError, match="upper: 64 slots would hold 256 txns"):
            min_slots_for_target(*args, **kw)
        monkeypatch.setattr(harness, "MAX_HELD_TXNS", 256)
        assert min_slots_for_target(*args, **kw) == 8

    def test_infeasible_upper_bound_raises(self):
        # uniform accesses over 10k items cannot hit 95% with 64 slots
        t = tenant(1, universe=10_000, alpha=0.0)
        with pytest.raises(InfeasibleTargetError):
            min_slots_for_target(
                "global", [t], 0.95, lower=8, upper=64, resolution=8, trials=1, **FAST
            )

    def test_matches_linear_scan_oracle(self):
        tenants = [tenant(1, universe=60)]
        seeds = [0]
        grid = list(range(4, 65, 4))
        oracle = next(
            c for c in grid if meets_target("global", tenants, c, 0.5, seeds, **FAST)
        )
        found = min_slots_for_target(
            "global", tenants, 0.5, lower=4, upper=64, resolution=4, trials=1, **FAST
        )
        assert found == oracle

    def test_monotone_in_target(self):
        tenants = [tenant(1, universe=60)]
        kw = dict(lower=4, upper=64, resolution=4, trials=1, **FAST)
        low = min_slots_for_target("global", tenants, 0.3, **kw)
        high = min_slots_for_target("global", tenants, 0.6, **kw)
        assert low <= high

    def test_sweep_reports_savings(self):
        tenants = [tenant(1, universe=60), tenant(2, universe=60)]
        results = capacity_sweep(
            tenants, [0.4], ["global", "static", "maxmin_fair"],
            lower=4, upper=128, resolution=4, trials=1, **FAST,
        )
        by_policy = {r.policy: r for r in results}
        assert by_policy["global"].savings_vs_global == pytest.approx(0.0)
        fair = by_policy["maxmin_fair"]
        assert fair.savings_vs_global == pytest.approx(
            1.0 - fair.min_slots / by_policy["global"].min_slots
        )
        assert fair.savings_vs_static == pytest.approx(
            1.0 - fair.min_slots / by_policy["static"].min_slots
        )


class TestProbeCache:
    def test_probe_sampling_no_tenant_raises(self):
        # every tenant leaves at txn 1000, before the final quarter of a 4000-txn probe
        with pytest.raises(ConfigurationError) as exc:
            min_slots_for_target(
                "global", [tenant(1, active_until=1_000)], 0.99,
                lower=8, upper=64, resolution=8, trials=1, min_txns=4_000,
            )
        assert exc.value.field_name == "tenants"
        assert "4000-txn probe" in str(exc.value)

    def test_departed_tenant_is_not_judged(self):
        # tenant 2 leaves at txn 1000, before the final quarter of a 4000-txn probe
        tenants = [tenant(1), tenant(2, active_until=1_000)]
        assert meets_target("global", tenants, 200, 0.0001, [0], min_txns=4_000)
        # the tenant still present is judged
        assert not meets_target("global", tenants, 200, 0.99, [0], min_txns=4_000)

    @settings(max_examples=12, deadline=None)
    @given(
        replacement=st.sampled_from(["lru", "fcfs"]),
        strategy=st.builds(
            SharingStrategy, loss_horizon=st.integers(1, 20), history_len=st.integers(2, 6)
        ),
        departs=st.none() | st.integers(100, 1_200),
        probes=st.lists(
            st.tuples(
                st.sampled_from(["global", "static", "maxmin_fair", "maxmin_selfish"]),
                st.sampled_from([8, 16, 32, 64]),
                st.sampled_from([0.2, 0.35, 0.5]),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_memoised_answers_equal_fresh_ones(self, replacement, strategy, departs, probes):
        tenants = [tenant(1, universe=120), tenant(2, universe=120, alpha=0.7,
                                                   active_until=departs)]
        base = small_scenario(tenants=tenants, replacement=replacement, strategy=strategy)
        kw = dict(min_txns=1_000, txns_per_slot=4, base=base)
        cache = ProbeCache()
        # each probe asked twice: the second answer comes from the memo
        for policy, capacity, target in probes + probes:
            memoised = meets_target(policy, tenants, capacity, target, [0, 1], cache=cache, **kw)
            assert memoised == meets_target(policy, tenants, capacity, target, [0, 1], **kw)

    def test_sweep_runs_each_probe_once_and_generates_each_trace_once(self, monkeypatch):
        """Each distinct probe runs once, on insertion stamps (FCFS) or in the
        one loop over stack distances (LRU), and each seed's trace is generated once,
        at the length of the upper probe, though the lower probe is shorter."""
        import tenantcache.harness as harness

        runs, generated = [], []
        real_drive, real_chunks = harness._drive, harness._chunks
        real_counted = harness._counted_rates

        def counting_drive(s, *args):
            runs.append((s.replacement, s.policy, s.capacity, s.seed))
            return real_drive(s, *args)

        def counting_counted(s, *args):
            runs.append((s.replacement, s.policy, s.capacity, s.seed))
            return real_counted(s, *args)

        def counting_chunks(workloads, total_txns, seed):
            generated.append((seed, total_txns))
            return real_chunks(workloads, total_txns, seed)

        monkeypatch.setattr(harness, "_drive", counting_drive)
        monkeypatch.setattr(harness, "_counted_rates", counting_counted)
        monkeypatch.setattr(harness, "_chunks", counting_chunks)
        tenants = [tenant(1, universe=60), tenant(2, universe=60, alpha=0.7)]
        for replacement in ("lru", "fcfs"):
            generated.clear()
            base = Scenario(capacity=8, policy="global", tenants=tenants, replacement=replacement)
            capacity_sweep(
                tenants, [0.3, 0.4, 0.5], ["global", "static", "maxmin_fair"],
                lower=4, upper=128, resolution=4, trials=2, min_txns=400, txns_per_slot=4,
                base=base,
            )
            assert sorted(generated) == [(0, 512), (1, 512)]
        assert len(runs) == len(set(runs))
        assert {(r, p) for r, p, _, _ in runs} == {
            (r, p) for r in ("lru", "fcfs") for p in ("global", "static", "maxmin_fair")
        }

    def test_probes_of_other_layouts_or_sampling_are_not_served_from_the_memo(self):
        tenants = [tenant(1), tenant(2, alpha=0.7)]

        def hybrid(dc_sizes, sample_every=20):
            return small_scenario(
                "hybrid_fair", 200, tenants=tenants, sample_every=sample_every,
                layout=RegionLayout(dc_sizes=dc_sizes, sc_size=40),
            )

        cache = ProbeCache()
        probes = [hybrid({1: 150, 2: 10}), hybrid({1: 10, 2: 150}), hybrid({1: 10, 2: 150}, 50)]
        served = [cache.probe(s) for s in probes]
        fresh = [ProbeCache().probe(s) for s in probes]
        assert served == fresh
        assert fresh[0] != fresh[1] != fresh[2]

    def test_a_probe_of_other_tenants_raises(self):
        lone = [tenant(1, universe=1_000, alpha=0.5)]
        assert not meets_target("global", lone, 100, 0.5, [0], min_txns=4_000)
        cache = ProbeCache()
        assert meets_target("global", [tenant(1, universe=100, alpha=1.2)], 100, 0.5, [0],
                            min_txns=4_000, cache=cache)
        with pytest.raises(ValueError, match="other tenants"):
            meets_target("global", lone, 100, 0.5, [0], min_txns=4_000, cache=cache)

    @pytest.mark.parametrize(
        "field,value",
        [("replacement", "fcfs"), ("window_length", 50), ("ewma_weight", 0.5),
         ("strategy", SharingStrategy(loss_horizon=3))],
        ids=["replacement", "window_length", "ewma_weight", "strategy"],
    )
    def test_a_probe_of_another_base_raises(self, field, value):
        s = small_scenario("global", sample_every=20)
        cache = ProbeCache()
        cache.probe(s)
        # equal fields in new objects are the same base
        assert cache.probe(replace(s, tenants=list(s.tenants), strategy=SharingStrategy()))
        with pytest.raises(ValueError, match="another base"):
            cache.probe(replace(s, **{field: value}))

    def test_a_trace_of_other_workloads_raises(self):
        cache = ProbeCache()
        workloads = [tenant(1).workload]
        list(cache.trace(workloads, 100, 0))
        list(cache.trace(tuple(workloads), 100, 1))
        with pytest.raises(ValueError, match="other workloads"):
            list(cache.trace([tenant(1, alpha=0.7).workload], 100, 0))
        with pytest.raises(ValueError, match="other workloads"):
            cache.stack_distances([tenant(2).workload], 100, 0)

    def test_a_cache_compares_and_hashes_by_identity(self):
        a, b = ProbeCache(), ProbeCache()
        assert a != b and len({a, b, a}) == 2

    def test_early_ending_stream_generated_once(self, monkeypatch):
        import tenantcache.harness as harness

        calls = []
        real_chunks = harness._chunks

        def counting_chunks(*args):
            calls.append(args)
            return real_chunks(*args)

        monkeypatch.setattr(harness, "_chunks", counting_chunks)
        workloads = [TenantWorkload(tenant_id=1, universe_size=50, active_until=100)]
        cache = ProbeCache()
        first = list(cache.trace(workloads, 300, 7))
        again = list(cache.trace(workloads, 300, 7))
        shorter = list(cache.trace(workloads, 60, 7))
        assert len(calls) == 1
        assert first == again == list(generate_stream(workloads, 300, 7))
        assert len(first) == 100
        assert shorter == first[:60]

    def test_a_held_trace_peaks_below_20_bytes_per_txn(self):
        """A 400k-txn trace is held as a 4-byte tenant code and an 8-byte item
        per txn, in arrays filled chunk by chunk: tracemalloc's peak over
        generating and holding it, CDFs and chunks included."""
        workloads = [tenant(1, universe=20_000).workload,
                     tenant(2, universe=5_000, alpha=0.7, weight=2).workload]
        cache = ProbeCache()
        tracemalloc.start()
        try:
            cache.hold(workloads, 400_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cache.traces[0][2]) == 400_000
        assert peak <= 20 * 400_000


class TestSuggestDcSize:
    def test_matches_a_global_search_for_the_lone_tenant(self):
        kw = dict(upper=400, trials=1, **FAST)
        size = suggest_dc_size(0.3, 0.7, universe=200, resolution=10, **kw)
        lone = TenantSpec(
            workload=TenantWorkload(
                tenant_id=0, universe_size=200, phases=(WorkloadPhase(alpha=0.7),)
            ),
            requirement=Requirement(hard=0.3, soft=0.3),
        )
        assert size == min_slots_for_target(
            "global", [lone], 0.3, lower=10, resolution=10, **kw
        )

    def test_does_not_fall_as_hard_rises(self):
        kw = dict(universe=200, resolution=10, upper=400, trials=1, **FAST)
        sizes = [suggest_dc_size(hard, 0.7, **kw) for hard in (0.1, 0.3, 0.5, 0.7)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]


class TestCli:
    def config_path(self, tmp_path, **kw):
        doc = scenario_to_json(small_scenario(**kw))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_writes_csv(self, tmp_path):
        from tenantcache.cli import main

        out = tmp_path / "out.csv"
        code = main(["run", "--config", self.config_path(tmp_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) > 1

    def test_run_seed_override_changes_output(self, tmp_path):
        from tenantcache.cli import main

        cfg = self.config_path(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
        assert a.read_text() != b.read_text()

    def test_compare_writes_one_csv_per_policy(self, tmp_path):
        from tenantcache.cli import main

        outdir = tmp_path / "cmp"
        code = main([
            "compare", "--config", self.config_path(tmp_path, policy="global"),
            "--policies", "global,static", "--out", str(outdir),
        ])
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["global.csv", "static.csv"]

    def test_huge_weight_runs_in_bounded_memory(self, tmp_path):
        import os
        import resource
        import subprocess
        import sys
        from pathlib import Path

        import tenantcache

        # a rotation of a billion turns is never built: the run fits in 2 GB of address space
        cfg = self.config_path(tmp_path, tenants=[tenant(1, weight=10**9), tenant(2)])
        src = str(Path(tenantcache.__file__).resolve().parent.parent)
        limit = 2_000_000 * 1024
        proc = subprocess.run(
            [sys.executable, "-m", "tenantcache.cli", "run", "--config", cfg],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",")[:2] for line in proc.stdout.splitlines()[1:]]
        assert rows[-2:] == [["3999", "1"], ["3999", "2"]]

    @pytest.mark.parametrize("command", ["sweep", "suggest-dc"])
    def test_a_huge_upper_exits_2_without_holding_a_trace(self, tmp_path, command):
        import os
        import resource
        import subprocess
        import sys
        from pathlib import Path

        import tenantcache

        # 200 million txns per seed would be 2.4 GB held; under a 1.5 GB cap
        # holding them ends in a MemoryError, so the refusal must come first
        if command == "sweep":
            flags = ["--config", self.config_path(tmp_path, policy="global"),
                     "--targets", "0.3", "--policies", "global",
                     "--out", str(tmp_path / "sweep.csv")]
        else:
            flags = ["--hard", "0.05", "--alpha", "1.0"]
        src = str(Path(tenantcache.__file__).resolve().parent.parent)
        limit = 1_500_000 * 1024
        proc = subprocess.run(
            [sys.executable, "-m", "tenantcache.cli", command, *flags, "--upper", "50000000"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "configuration error: upper: 50000000 slots would hold" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "command,out",
        [
            ("run", "missing/out.csv"),
            ("run", "."),
            ("sweep", "missing/sweep.csv"),
            ("compare", "a-file/cmp"),
            ("compare", "a-file"),
        ],
        ids=["run-missing-dir", "run-into-a-directory", "sweep-missing-dir",
             "compare-under-a-file", "compare-into-a-file"],
    )
    def test_unwritable_out_exits_2_before_simulating(
        self, tmp_path, monkeypatch, capsys, command, out
    ):
        import tenantcache.cli as cli

        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation ran")

        for name in ("run_scenario", "compare_policies", "capacity_sweep"):
            monkeypatch.setattr(cli, name, no_simulation)
        (tmp_path / "a-file").write_text("kept\n")
        args = {
            "run": [],
            "compare": ["--policies", "global"],
            "sweep": ["--targets", "0.3", "--policies", "global"],
        }[command]
        code = cli.main([
            command, "--config", self.config_path(tmp_path, policy="global"),
            *args, "--out", str(tmp_path / out),
        ])
        assert code == 2
        assert "configuration error: out:" in capsys.readouterr().err
        assert (tmp_path / "a-file").read_text() == "kept\n"
        assert not (tmp_path / "missing").exists()

    def test_compare_makes_missing_parents_of_out(self, tmp_path):
        from tenantcache.cli import main

        outdir = tmp_path / "new" / "cmp"
        code = main([
            "compare", "--config", self.config_path(tmp_path, policy="global"),
            "--policies", "global", "--out", str(outdir),
        ])
        assert code == 0
        assert [p.name for p in outdir.iterdir()] == ["global.csv"]

    def test_bad_config_exit_code(self, tmp_path):
        from tenantcache.cli import main

        path = tmp_path / "bad.json"
        doc = scenario_to_json(small_scenario())
        doc["policy"] = "bogus"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2

    def test_infeasible_sweep_exit_code(self, tmp_path):
        from tenantcache.cli import main

        cfg = self.config_path(
            tmp_path,
            policy="global",
            tenants=[tenant(1, universe=10_000, alpha=0.0)],
        )
        code = main([
            "sweep", "--config", cfg, "--targets", "0.95", "--policies", "global",
            "--out", str(tmp_path / "sweep.csv"),
            "--lower", "8", "--upper", "64", "--resolution", "8", "--trials", "1",
        ])
        assert code == 3
        assert not (tmp_path / "sweep.csv").exists()

    def test_static_sweep_starts_below_the_tenant_count(self, tmp_path):
        from tenantcache.cli import main

        # a static split of 1 slot over 2 tenants starves one: that probe fails
        cfg = self.config_path(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", cfg, "--targets", "0.3", "--policies", "global,static",
            "--out", str(out),
            "--lower", "1", "--upper", "64", "--resolution", "1", "--trials", "1",
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["global", "static"]
        assert int(rows[1][2]) >= 2
        # an upper bound that starves a tenant too is infeasible
        code = main([
            "sweep", "--config", cfg, "--targets", "0.3", "--policies", "static",
            "--out", str(out),
            "--lower", "1", "--upper", "1", "--resolution", "1", "--trials", "1",
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.update(capacity="lots"), "capacity"),
            (lambda d: d["tenants"][0].update(requirement={"hard": 0.6, "soft": 0.3}),
             "tenants[0]"),
            (lambda d: d["tenants"][1].update(weight=0), "tenants[1]"),
            (lambda d: [d], "config"),
            (lambda d: d.update(replacement="mru"), "replacement"),
            (lambda d: d.update(layout={"dc_sizes": {"1": -1}, "sc_size": 65}), "layout"),
            (lambda d: d.update(policy="static", capacity=100,
                                layout={"dc_sizes": {"1": 100}, "sc_size": 0}), "layout"),
            (lambda d: d.update(policy="static", capacity=100,
                                layout={"dc_sizes": {"1": 100, "2": 0}, "sc_size": 0}), "layout"),
            (lambda d: d.update(policy="hybrid_fair", capacity=100,
                                layout={"dc_sizes": {"1": 100, "2": 0}, "sc_size": 0}), "layout"),
            (lambda d: d.update(policy="static", capacity=1), "capacity"),
            (lambda d: d.update(capacity=64.9), "capacity"),
            (lambda d: d.update(capacity=True), "capacity"),
            (lambda d: d.update(capacity="64"), "capacity"),
            (lambda d: d["tenants"][1].update(weight=2.7), "tenants[1]"),
            (lambda d: d["tenants"][0].update(tenant_id=True), "tenants[0]"),
            (lambda d: d.update(ewma_weight=True), "ewma_weight"),
            (lambda d: d.update(ewma_weight="0.5"), "ewma_weight"),
            (lambda d: d["tenants"][0]["phases"][0].update(alpha=float("nan")), "tenants[0]"),
            (lambda d: d["tenants"][1]["phases"][0].update(alpha=float("inf")), "tenants[1]"),
            (lambda d: d.update(policy="static", capacity=300,
                                layout={"dc_sizes": {"1": 100, "2": 100, "3": 100},
                                        "sc_size": 0}), "layout"),
            (lambda d: d["tenants"][0].update(active_from=-10, active_until=-5), "tenants[0]"),
            (lambda d: d["tenants"][1].update(universe_size=2_000_000_000), "tenants[1]"),
            (lambda d: d["tenants"][1].update(weight=2**70), "tenants"),
            (lambda d: d.update(tenants=[{**t, "weight": 2**62} for t in d["tenants"]]),
             "tenants"),
            (lambda d: d.update(policy="global", strategy={"history_len": 2**70}), "strategy"),
            (lambda d: d.update(policy="maxmin_selfish", strategy={"loss_horizon": 10**400}),
             "strategy"),
        ],
        ids=["string-capacity", "hard-above-soft", "zero-weight", "array-document",
             "unknown-replacement", "negative-region", "static-unlisted-tenant",
             "static-zero-dc", "hybrid-zero-dc-no-sc", "static-capacity-below-tenants",
             "float-capacity", "bool-capacity", "numeric-string-capacity", "float-weight",
             "bool-tenant-id", "bool-ewma-weight", "string-ewma-weight", "nan-alpha",
             "infinite-alpha", "dc-sizes-unknown-tenant", "negative-active-from",
             "huge-universe", "huge-weight", "weights-summing-past-int64", "huge-history-len",
             "loss-horizon-past-float-range"],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, edit, field):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import tenantcache

        doc = scenario_to_json(small_scenario())
        doc = edit(doc) or doc
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        src = str(Path(tenantcache.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "tenantcache.cli", "run", "--config", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"configuration error: {field}:" in proc.stderr

    def test_idle_stretch_runs_under_selfish_policy(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import tenantcache

        cfg = self.config_path(
            tmp_path,
            policy="maxmin_selfish",
            capacity=20,
            tenants=[tenant(1, active_until=100), tenant(2, active_from=500)],
            total_txns=300,
            sample_every=50,
        )
        src = str(Path(tenantcache.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "tenantcache.cli", "run", "--config", cfg],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        rows = [line.split(",")[:2] for line in proc.stdout.splitlines()[1:]]
        assert rows == [["49", "1"], ["99", "1"], ["149", "2"], ["199", "2"], ["249", "2"],
                        ["299", "2"]]

    def test_sweep_with_a_departed_tenant_succeeds(self, tmp_path):
        from tenantcache.cli import main

        cfg = self.config_path(
            tmp_path, policy="global", tenants=[tenant(1), tenant(2, active_until=1_000)]
        )
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", cfg, "--targets", "0.1", "--policies", "global",
            "--out", str(out),
            "--lower", "8", "--upper", "64", "--resolution", "8", "--trials", "1",
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == SWEEP_CSV_HEADER

    def test_sweep_with_every_tenant_departed_exits_2(self, tmp_path, capsys):
        from tenantcache.cli import main

        cfg = self.config_path(
            tmp_path,
            policy="global",
            tenants=[tenant(1, active_until=1_000), tenant(2, active_until=1_000)],
        )
        code = main([
            "sweep", "--config", cfg, "--targets", "0.99", "--policies", "global",
            "--out", str(tmp_path / "sweep.csv"),
            "--lower", "8", "--upper", "64", "--resolution", "8", "--trials", "1",
        ])
        assert code == 2
        assert "configuration error: tenants:" in capsys.readouterr().err

    def test_sweep_uses_config_replacement_and_tracker(self, tmp_path, monkeypatch):
        import tenantcache.harness as harness
        from tenantcache.cli import main

        probes = []
        monkeypatch.setattr(harness, "run_scenario", lambda s, **_: probes.append(s) or ONE_RECORD)
        cfg = self.config_path(
            tmp_path, policy="global", replacement="fcfs", window_length=40, ewma_weight=0.3
        )
        code = main([
            "sweep", "--config", cfg, "--targets", "0.0", "--policies", "global,static",
            "--out", str(tmp_path / "sweep.csv"),
            "--lower", "8", "--upper", "64", "--resolution", "8", "--trials", "2",
        ])
        assert code == 0
        assert len(probes) == 4
        for s in probes:
            assert (s.replacement, s.window_length, s.ewma_weight) == ("fcfs", 40, 0.3)

    def test_sweep_probes_carry_the_config_strategy(self, tmp_path, monkeypatch):
        import tenantcache.harness as harness
        from tenantcache.cli import main
        from tenantcache.sharing import SharingStrategy

        # an LRU probe is served by the one loop over stack distances; an FCFS one runs
        # run_scenario
        probes = []
        monkeypatch.setattr(
            harness, "_counted_rates",
            lambda s, *_: probes.append((s, "counted")) or [(1, 1.0)],
        )
        monkeypatch.setattr(
            harness, "run_scenario", lambda s, **_: probes.append((s, "run")) or ONE_RECORD
        )
        for replacement, path in (("lru", "counted"), ("fcfs", "run")):
            probes.clear()
            cfg = self.config_path(
                tmp_path,
                policy="maxmin_selfish",
                strategy=SharingStrategy(loss_horizon=5, history_len=4),
                replacement=replacement,
            )
            code = main([
                "sweep", "--config", cfg, "--targets", "0.0", "--policies", "maxmin_selfish",
                "--out", str(tmp_path / "sweep.csv"),
                "--lower", "8", "--upper", "64", "--resolution", "8", "--trials", "2",
            ])
            assert code == 0
            assert [kind for _, kind in probes] == [path, path]
            for s, _ in probes:
                assert (s.strategy.loss_horizon, s.strategy.history_len) == (5, 4)

    def test_search_options_not_given_take_the_library_defaults(self, tmp_path, monkeypatch):
        import inspect

        import tenantcache.cli as cli

        calls = []
        monkeypatch.setattr(cli, "capacity_sweep", lambda *a, **kw: calls.append((a, kw)) or [])
        monkeypatch.setattr(cli, "suggest_dc_size", lambda *a, **kw: calls.append((a, kw)) or 7)
        sweep = [
            "sweep", "--config", self.config_path(tmp_path, policy="global", seed=5),
            "--targets", "0.3,0.5", "--policies", "global,static",
            "--out", str(tmp_path / "sweep.csv"),
        ]
        suggest = ["suggest-dc", "--hard", "0.3", "--alpha", "0.7"]
        assert cli.main(sweep) == 0
        assert cli.main([*sweep, "--lower", "8", "--trials", "2"]) == 0
        assert cli.main(suggest) == 0
        assert cli.main([*suggest, "--universe", "200", "--resolution", "10", "--upper", "40"]) == 0
        (sweep_args, bare), (_, given), *suggested = calls
        assert sweep_args[1:] == ([0.3, 0.5], ["global", "static"])
        assert sorted(bare) == ["base", "seed"] and bare["seed"] == 5
        assert given == {**bare, "lower": 8, "trials": 2}
        assert suggested == [
            ((0.3, 0.7), {}),
            ((0.3, 0.7), {"universe": 200, "resolution": 10, "upper": 40}),
        ]
        # so the CLI searches with these defaults
        search = inspect.signature(min_slots_for_target).parameters
        assert [search[k].default for k in ("lower", "upper", "resolution", "trials")] == [
            50, 40_000, 50, 3
        ]
        dc = inspect.signature(suggest_dc_size).parameters
        assert (dc["universe"].default, dc["resolution"].default) == (100_000, 50)

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--targets", "0.3:0.6:0"], "targets"),
            (["--targets", "0.3:0.6"], "targets"),
            (["--targets", "abc"], "targets"),
            (["--resolution", "0"], "resolution"),
            (["--resolution", "-5"], "resolution"),
            (["--trials", "0"], "trials"),
            (["--targets", "0.3,1.2"], "targets"),
            (["--lower", "1000", "--upper", "100"], "upper"),
            (["--targets", "0:0.00001:1e-7"], "targets"),
            (["--targets", "0.5:1.5:0.1"], "targets"),
            # an upper below 1 would round onto the grid at 0, below any lower
            (["--lower", "0", "--upper", "0", "--targets", "0.0"], "upper"),
        ],
        ids=["zero-step", "no-step", "not-a-number", "zero-resolution", "negative-resolution",
             "zero-trials", "late-bad-target", "lower-above-upper", "step-too-fine",
             "stop-out-of-range", "upper-below-one"],
    )
    def test_bad_sweep_arguments_exit_2_before_probing(
        self, tmp_path, monkeypatch, capsys, flags, field
    ):
        import tenantcache.harness as harness
        from tenantcache.cli import main

        def no_probe(*args):
            raise AssertionError("a probe ran")

        # LRU probes call no run_scenario; every probe goes through ProbeCache.probe
        monkeypatch.setattr(harness, "run_scenario", no_probe)
        monkeypatch.setattr(ProbeCache, "probe", no_probe)
        code = main([
            "sweep", "--config", self.config_path(tmp_path, policy="global"),
            "--targets", "0.5", "--policies", "global", "--out", str(tmp_path / "sweep.csv"),
            *flags,
        ])
        assert code == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,policies",
        [("sweep", "global,bogus"), ("sweep", "global,hybrid_fair"), ("compare", "global,bogus")],
        ids=["sweep-unknown", "sweep-hybrid", "compare-unknown"],
    )
    def test_bad_policies_exit_2_before_any_probe_or_run(
        self, tmp_path, monkeypatch, capsys, command, policies
    ):
        import tenantcache.harness as harness
        from tenantcache.cli import main

        calls = []
        real_probe, real_run = ProbeCache.probe, harness.run_scenario

        def counting_probe(cache, s):
            calls.append(("probe", s.policy))
            return real_probe(cache, s)

        def counting_run(s, *args, **kwargs):
            calls.append(("run", s.policy))
            return real_run(s, *args, **kwargs)

        monkeypatch.setattr(ProbeCache, "probe", counting_probe)
        monkeypatch.setattr(harness, "run_scenario", counting_run)
        # the config has a layout, so a hybrid policy is refused by name, not for its layout
        layout = RegionLayout(dc_sizes={1: 16, 2: 16}, sc_size=32)
        cfg = self.config_path(tmp_path, policy="hybrid_fair", layout=layout)
        flags = ["--targets", "0.5", "--out", str(tmp_path / "sweep.csv")]
        if command == "compare":
            flags = ["--out", str(tmp_path / "out")]
        code = main([command, "--config", cfg, "--policies", policies, *flags])
        assert code == 2
        assert "configuration error: policies:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("spec", ["0.3,", "0.6:0.3:-0.1", "0:inf:0.1", "-inf:0.5:0.1",
                                      "0:0.5:nan", "0.1:0.2:0.3:0.4", "0:0.00001:1e-7",
                                      "-0.1:0.5:0.1", "0.5:1.5:0.1", "0:1:0.1",
                                      "0.5:0.3:0.1"])
    def test_parse_targets_rejects_bad_spec(self, spec):
        from tenantcache.cli import _parse_targets

        with pytest.raises(ConfigurationError) as exc:
            _parse_targets(spec)
        assert exc.value.field_name == "targets"

    def test_parse_targets_rejects_a_fine_range_before_listing_it(self, monkeypatch):
        import tenantcache.cli as cli

        # each listed target is rounded: fail at the first one instead of exhausting memory
        monkeypatch.setattr(cli, "round", lambda *a: pytest.fail("the range was listed"),
                            raising=False)
        with pytest.raises(ConfigurationError) as exc:
            cli._parse_targets("0:0.5:1e-12")
        assert exc.value.field_name == "targets"

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--hard", "-0.1", "--alpha", "0.7"], "hard"),
            (["--hard", "1.0", "--alpha", "0.7"], "hard"),
            (["--hard", "0.3", "--alpha", "-1"], "alpha"),
            (["--hard", "0.3", "--alpha", "nan"], "alpha"),
            (["--hard", "0.3", "--alpha", "0.7", "--universe", "0"], "universe"),
            (["--hard", "0.3", "--alpha", "0.7", "--universe", "2000000000"], "universe"),
        ],
        ids=["negative-hard", "hard-one", "negative-alpha", "nan-alpha", "zero-universe",
             "huge-universe"],
    )
    def test_bad_suggest_dc_arguments_exit_2_without_traceback(self, flags, field):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import tenantcache

        src = str(Path(tenantcache.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "tenantcache.cli", "suggest-dc", *flags],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"configuration error: {field}:" in proc.stderr

    def test_parse_targets_range_and_list(self):
        from tenantcache.cli import _parse_targets

        assert _parse_targets("0.3:0.6:0.1") == pytest.approx([0.3, 0.4, 0.5, 0.6])
        assert _parse_targets("0.25,0.75") == [0.25, 0.75]
