"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single pass/fail line.
Scenario constants (universe sizes, run lengths) were calibrated against the
real simulator; the tolerance bands are part of the contract and must not be
widened here.
"""
import random
import time

import pytest

from tenantcache.cache_core import RegionLayout, SlotStore
from tenantcache.harness import (
    ProbeCache,
    Scenario,
    TenantSpec,
    capacity_sweep,
    run_scenario,
)
from tenantcache.metrics import (
    HitRateTracker,
    Requirement,
    check_objectives,
    ewma_update,
    gap_report,
)
from tenantcache.sharing import (
    global_insert,
    hybrid_insert,
    maxmin_insert,
    rank_donors,
    select_victim_tenant,
    selfish_select_victim,
    static_insert,
)
from tenantcache.workload import TenantWorkload, WorkloadPhase, generate_stream, zipf_pmf

SEEDS = (0, 1, 2)


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def tenant(tid, universe, alpha, soft=0.6, hard=0.0, weight=1, active_from=0, phases=None):
    if phases is None:
        phases = (WorkloadPhase(alpha),)
    return TenantSpec(
        workload=TenantWorkload(
            tenant_id=tid,
            universe_size=universe,
            phases=tuple(phases),
            active_from=active_from,
            weight=weight,
        ),
        requirement=Requirement(hard=hard, soft=soft),
    )


def steady_means(records, total_txns):
    tail = [r for r in records if r.txn >= total_txns * 3 // 4]
    ids = set().union(*(r.tenants for r in tail))
    return {
        k: sum(r.tenants[k].ewma_hit_rate for r in tail if k in r.tenants)
        / sum(1 for r in tail if k in r.tenants)
        for k in ids
    }


class TestOracleEquivalences:
    def test_policy_degeneracies_on_random_traces(self):
        started = time.monotonic()
        ok = True
        for case in range(50):
            rng = random.Random(1_000 + case)
            n_tenants = rng.randint(2, 4)
            capacity = rng.randint(16, 512)
            tenant_ids = list(range(1, n_tenants + 1))
            trace = [
                (rng.choice(tenant_ids), rng.randrange(1_000)) for _ in range(3_000)
            ]
            gaps = {k: rng.uniform(-0.5, 0.5) for k in tenant_ids}
            ranking = rank_donors(gaps)

            # (a) one tenant: max-min sharing is plain LRU
            solo = [(1, item) for t, item in trace if t == 1]
            mm = SlotStore(RegionLayout.global_layout(capacity))
            gl = SlotStore(RegionLayout.global_layout(capacity))
            solo_ranking = rank_donors({1: gaps[1]})
            ok &= [maxmin_insert(mm, k, solo_ranking).kind for k in solo] == [
                global_insert(gl, k).kind for k in solo
            ]

            # (b) no dedicated slots: hybrid is max-min
            hy = SlotStore(RegionLayout({k: 0 for k in tenant_ids}, capacity))
            mm = SlotStore(RegionLayout.global_layout(capacity))
            ok &= [hybrid_insert(hy, k, ranking).kind for k in trace] == [
                maxmin_insert(mm, k, ranking).kind for k in trace
            ]

            # (c) no shared region: hybrid is static partitioning
            layout = RegionLayout.static_layout(capacity, tenant_ids)
            hy = SlotStore(layout)
            st = SlotStore(layout)
            ok &= [hybrid_insert(hy, k, ranking).kind for k in trace] == [
                static_insert(st, k).kind for k in trace
            ]

            # (d) static partition: each tenant is an independent LRU
            st = SlotStore(layout)
            solos = {
                k: SlotStore(RegionLayout.global_layout(layout.dc_sizes[k]))
                for k in tenant_ids
            }
            ok &= all(
                static_insert(st, key).kind == global_insert(solos[key[0]], key).kind
                for key in trace
            )
        elapsed = time.monotonic() - started
        report(1, "oracle equivalences", ok and elapsed < 30.0)


class TestTwoTenantArrival:
    def test_global_and_static_hit_rate_bands(self):
        # bands carry a +/-5 pp tolerance, applied here once
        tenants = [
            tenant(1, 130_000, 1.0, soft=0.4),
            tenant(2, 15_000, 0.8, soft=0.4, active_from=20_000),
        ]
        ok = True
        for policy in ("global", "static"):
            for seed in SEEDS:
                started = time.monotonic()
                s = Scenario(
                    capacity=3_000,
                    policy=policy,
                    tenants=tenants,
                    total_txns=200_000,
                    sample_every=2_000,
                    seed=seed,
                )
                means = steady_means(run_scenario(s), 200_000)
                ok &= time.monotonic() - started < 10.0
                if policy == "global":
                    ok &= 0.30 <= means[1] <= 0.55
                    ok &= 0.30 <= means[2] <= 0.55
                else:
                    ok &= means[1] >= 0.50
                    ok &= 0.30 <= means[2] <= 0.50
        report(2, "shared cache starves the late skewed tenant; static protects it", ok)


class TestFairSharingEqualization:
    def test_equal_rates_and_reequalization_after_phase_changes(self):
        total = 180_000
        phase_changes = (60_000, 120_000)
        tenants = [
            tenant(
                1, 100_000, None,
                phases=(
                    WorkloadPhase(1.0, 0),
                    WorkloadPhase(0.7, phase_changes[0]),
                    WorkloadPhase(0.9, phase_changes[1]),
                ),
            ),
            tenant(2, 100_000, 0.8),
        ]
        ok = True
        for seed in SEEDS:
            s = Scenario(
                capacity=13_000,
                policy="maxmin_fair",
                tenants=tenants,
                total_txns=total,
                sample_every=1_000,
                seed=seed,
            )
            records = run_scenario(s)
            means = steady_means(records, total)
            ok &= abs(means[1] - means[2]) <= 0.03
            diffs = {
                r.txn: abs(r.tenants[1].ewma_hit_rate - r.tenants[2].ewma_hit_rate)
                for r in records
            }
            for change in phase_changes:
                budget = change + int(0.15 * total)
                ok &= any(
                    diffs[t] <= 0.03 for t in diffs if change <= t <= budget
                )
        report(3, "fair sharing equalizes hit rates and recovers after phase changes", ok)


class TestCapacitySavings:
    def test_fair_sharing_needs_fewest_slots(self):
        started = time.monotonic()
        tenants = [tenant(1, 8_000, 1.0), tenant(2, 8_000, 0.7)]
        targets = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        results = capacity_sweep(
            tenants,
            targets,
            ["global", "static", "maxmin_fair"],
            lower=50,
            upper=40_000,
            resolution=50,
            trials=3,
            seed=0,
        )
        elapsed = time.monotonic() - started
        table = {}
        for r in results:
            table.setdefault(r.target, {})[r.policy] = r
        ok = elapsed < 600.0
        for t in targets:
            row = table[t]
            fair = row["maxmin_fair"]
            ok &= fair.min_slots <= row["global"].min_slots
            ok &= fair.min_slots <= row["static"].min_slots
        max_vs_global = max(table[t]["maxmin_fair"].savings_vs_global for t in targets)
        max_vs_static = max(table[t]["maxmin_fair"].savings_vs_static for t in targets)
        ok &= 0.20 <= max_vs_global <= 0.45
        ok &= 0.30 <= max_vs_static <= 0.60
        report(4, "fair sharing saves 20-45% vs global and 30-60% vs static", ok)


class TestHybridHardRequirements:
    def test_dedicated_regions_protect_the_light_tenant(self):
        total = 200_000
        warmup = total // 5
        tenants = [
            tenant(1, 30_000, 0.9, soft=0.60, hard=0.30, weight=5),
            tenant(2, 16_500, 0.7, soft=0.60, hard=0.30, weight=1),
        ]
        layouts = [
            RegionLayout({1: 1_000, 2: 1_000}, 3_000),
            RegionLayout({1: 2_000, 2: 2_000}, 1_000),
        ]
        # each seed's trace is generated once and replayed by all five runs
        workloads = [t.workload for t in tenants]
        traces = ProbeCache()
        ok = True
        for layout in layouts:
            for policy in ("hybrid_fair", "hybrid_selfish"):
                for seed in SEEDS:
                    s = Scenario(
                        capacity=5_000,
                        policy=policy,
                        tenants=tenants,
                        layout=layout,
                        total_txns=total,
                        sample_every=2_000,
                        seed=seed,
                    )
                    trace = traces.trace(workloads, total, seed)
                    for r in run_scenario(s, trace=trace):
                        if r.txn >= warmup:
                            ok &= not any(
                                t.hard_violation for t in r.tenants.values()
                            )
        for seed in SEEDS:
            s = Scenario(
                capacity=5_000,
                policy="global",
                tenants=tenants,
                total_txns=total,
                sample_every=2_000,
                seed=seed,
            )
            trace = traces.trace(workloads, total, seed)
            means = steady_means(run_scenario(s, trace=trace), total)
            ok &= means[2] < 0.30
        report(5, "hybrid meets hard requirements where global caching fails", ok)


class TestSelfishVersusFair:
    def test_victim_selection_divergence(self):
        ok = True
        # surplus donor: both modes pick the tenant above its requirement
        gaps = {1: 0.15, 2: -0.10}
        ok &= select_victim_tenant(gaps, [1, 2]) == 1
        ok &= selfish_select_victim(gaps, [1, 2], requester=2, eligible={1: True}) == 1
        # everyone struggling: selfish requester evicts itself, fair picks max gap
        gaps = {1: -0.10, 2: -0.30}
        ok &= selfish_select_victim(gaps, [1, 2], requester=2, eligible={}) == 2
        ok &= select_victim_tenant(gaps, [1, 2]) == 1
        report(6, "selfish sharing self-evicts where fair sharing taxes the best-off", ok)


class TestMetricsExact:
    def test_smoothing_gap_and_window_accounting(self):
        ok = ewma_update(0.5, 0.6, 0.125) == pytest.approx(0.5125)
        ok &= ewma_update(None, 0.7) == 0.7

        rep = gap_report({1: 0.80, 2: 0.65}, {1: 0.70, 2: 0.70}, [1, 2])
        ok &= rep.per_tenant_gap[2] == pytest.approx(-0.05)
        ok &= rep.min_gap == pytest.approx(-0.05)
        rep = gap_report({1: 0.72, 2: 0.70}, {1: 0.70, 2: 0.70}, [1, 2])
        ok &= rep.min_gap == pytest.approx(0.0)
        flags, g = check_objectives(
            {1: 0.5, 2: 0.9},
            {1: Requirement(0.3, 0.6), 2: Requirement(0.3, 0.6)},
            [1, 2],
        )
        ok &= flags == {1: False, 2: False} and g == pytest.approx(-0.1)

        # fixed point and boundedness
        for x in (0.0, 0.33, 1.0):
            ok &= ewma_update(x, x, 0.125) == pytest.approx(x)
        rng = random.Random(0)
        for _ in range(200):
            prev, obs = rng.random(), rng.random()
            out = ewma_update(prev, obs, 0.125)
            ok &= min(prev, obs) - 1e-12 <= out <= max(prev, obs) + 1e-12

        tracker = HitRateTracker(window_length=4)
        signals = [tracker.record_access(h) for h in (True, True, False, False)]
        ok &= signals == [None, None, None, 0.5]
        ok &= tracker.window_accesses == 0 and tracker.window_hits == 0
        ok &= tracker.ewma == pytest.approx(0.5)
        report(7, "metrics formulas exact", ok)


class TestWorkloadStatistics:
    def test_sampler_frequencies_and_round_robin(self):
        ok = True
        n = 500
        pmf = zipf_pmf(n, 0.9)
        for seed in SEEDS:
            w = TenantWorkload(
                tenant_id=1, universe_size=n, phases=(WorkloadPhase(0.9),)
            )
            items = [e.item for e in generate_stream([w], 100_000, seed=seed)]
            for rank in range(10):
                ok &= abs(items.count(rank) / len(items) - pmf[rank]) < 0.01

        ws = [
            TenantWorkload(tenant_id=1, universe_size=10, weight=5),
            TenantWorkload(tenant_id=2, universe_size=10, weight=1),
        ]
        order = [e.tenant_id for e in generate_stream(ws, 24, seed=0)]
        ok &= order == ([1] * 5 + [2]) * 4
        ws = [
            TenantWorkload(tenant_id=1, universe_size=10, weight=3),
            TenantWorkload(tenant_id=2, universe_size=10, weight=2),
        ]
        order = [e.tenant_id for e in generate_stream(ws, 50, seed=0)]
        ok &= order.count(1) == 30 and order.count(2) == 20
        report(8, "sampler matches its distribution; interleaving counts exact", ok)
