"""Golden-output contract: SHA-256 digests of the CSV time series for fixed seeds.

A change to the simulator must reproduce these outputs byte for byte unless
it names the behaviour change it makes; only such a change may re-record the
digests (run this file as a script to print the current ones).
"""
import hashlib
import io

import pytest

from tenantcache.cache_core import RegionLayout
from tenantcache.harness import (
    POLICIES,
    Scenario,
    TenantSpec,
    compare_policies,
    run_scenario,
    write_records_csv,
)
from tenantcache.metrics import Requirement
from tenantcache.workload import TenantWorkload, WorkloadPhase, generate_stream, write_trace

COMPARE_DIGESTS = {
    "lru": {
        "global": "a65f0e0e03ad119390fb74dc7ba0fa7405c5e8c0e05faadaa903323ca288ca71",
        "static": "5772a659f620e063f337ebf37131113ce11ad15e184673721e8aeda9318dc900",
        "maxmin_fair": "4b5303c678675153f84caae16ff9065f5d8b631631380c01519525f6b2164da9",
        "maxmin_selfish": "1b6eee445d93e86df6d8d6f521f0f564ef883f0ef41c7d6adde28d526a5a4dac",
        "hybrid_fair": "04f66d439a08574dd6ef7da2981d8da6038ea1c32f0d8ffd642be041767cd7e3",
        "hybrid_selfish": "fc1d3911b97dcf06d237d983fa111468e21ae26812a9b0fdf6cb2b164d28c232",
    },
    "fcfs": {
        "global": "3c64c3100947fc600cee63ba98cd61b0caa4a4382b4a5982c227399c26835c40",
        "static": "117bc4b0c054886b0ffc2b42d6a637f8dda04eb5a03536c2d25e7e9862e42776",
        "maxmin_fair": "a895bc5334191161b47c74b53774250ef97aaf27533edb32c62a84c1d0213a87",
        "maxmin_selfish": "6fa9014dc265eea78bcdf302486cf147b8e4b52f4eba0298c176ba12e27e826b",
        "hybrid_fair": "c0e0b476c93f858baf977f932d25e19e5758f3310acf9f9a5d7a50bb0d5bd646",
        "hybrid_selfish": "b98e31432f8208616e8e77e8f5d7bc1b3e0d111b14dad949ce9b7ff300a0627c",
    },
}

CHURN_DIGEST = "a54ca9488f1e3a73ee17ee636bd76a8076819e06b919020af1f40d2990297423"

# many_owner_scenario per policy: up to 8 SC owners to choose a donor among
MANY_OWNER_DIGESTS = {
    "maxmin_fair": "e59abf8c099571d6fe8f4688d4779211f594f0a5183cc6ae2bac2f276908fba2",
    "maxmin_selfish": "12da6f7c65acdfa3ec7f13e2548e478f22193d726dc07f70dd29b93b52b72af6",
    "hybrid_selfish": "c574037f55bbc156edee68753ce8be04b205f2f62063e76dc2d4627217739fc8",
}

# generate_stream output (write_trace format) and its event count
STREAM_DIGESTS = {
    "idle_stretch": ("967b9469054bb6b79d4c9937976ce25fbb1abf2ef2439c71a225d7fc77e5b946", 2_000),
    "late_first_arrival": ("80d1856f3db173c65417221ac1fe6867e43a032852edfb62c22bc74513af56d1", 1_500),
    "early_end": ("f9dc31fc73f10d2bf9a72653f02f9c7963aa94cd8b888f1d3d2594902f23e5b0", 800),
}

# (workloads, total_txns, seed) per activation pattern
STREAMS = {
    # tenant 1 leaves at 400, tenant 2 arrives at 1000 with a phase change at 1200
    "idle_stretch": ([
        TenantWorkload(1, universe_size=300, phases=(WorkloadPhase(0.9),),
                       active_until=400, weight=2),
        TenantWorkload(2, universe_size=200,
                       phases=(WorkloadPhase(0.7), WorkloadPhase(1.2, start_txn=1_200)),
                       active_from=1_000),
    ], 2_000, 5),
    # nobody is active before 300
    "late_first_arrival": ([
        TenantWorkload(1, universe_size=300,
                       phases=(WorkloadPhase(1.0), WorkloadPhase(0.5, start_txn=600)),
                       active_from=300),
        TenantWorkload(2, universe_size=200, phases=(WorkloadPhase(0.8),),
                       active_from=700, weight=3),
    ], 1_500, 11),
    # the last tenant leaves at 800, so the stream stops short of 2000 events
    "early_end": ([
        TenantWorkload(1, universe_size=300, phases=(WorkloadPhase(0.9),), active_until=500),
        TenantWorkload(2, universe_size=200, phases=(WorkloadPhase(0.6),),
                       active_from=200, active_until=800, weight=2),
    ], 2_000, 2),
}


def digest(records) -> str:
    buf = io.StringIO()
    write_records_csv(records, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def spec(tid, universe, alpha, soft, hard=0.1, weight=1, phases=None, **kw):
    return TenantSpec(
        workload=TenantWorkload(
            tenant_id=tid,
            universe_size=universe,
            phases=phases or (WorkloadPhase(alpha),),
            weight=weight,
            **kw,
        ),
        requirement=Requirement(hard=hard, soft=soft),
    )


def compare_scenario(replacement: str) -> Scenario:
    """Two tenants on a small hybrid layout; hits and misses in every region."""
    return Scenario(
        capacity=160,
        policy="hybrid_fair",
        tenants=[spec(1, 800, 0.9, 0.5, weight=3), spec(2, 500, 0.7, 0.4)],
        layout=RegionLayout(dc_sizes={1: 40, 2: 40}, sc_size=80),
        total_txns=6_000,
        window_length=50,
        replacement=replacement,
        seed=7,
        sample_every=250,
    )


def churn_scenario() -> Scenario:
    """hybrid_selfish with an arrival, a departure and phase changes."""
    return Scenario(
        capacity=150,
        policy="hybrid_selfish",
        tenants=[
            spec(1, 600, 1.0, 0.45, weight=2,
                 phases=(WorkloadPhase(1.0), WorkloadPhase(0.6, start_txn=3_000))),
            spec(2, 600, 0.8, 0.4, active_until=6_000),
            spec(3, 400, 0.9, 0.4, active_from=2_000,
                 phases=(WorkloadPhase(0.9), WorkloadPhase(1.2, start_txn=5_000))),
        ],
        layout=RegionLayout(dc_sizes={1: 25, 2: 25, 3: 25}, sc_size=75),
        total_txns=9_000,
        window_length=50,
        seed=3,
        sample_every=300,
    )


# perfbench churn-8t's skews and weights, tenants 1-8
MANY_ALPHAS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.9, 0.8, 0.7)
MANY_WEIGHTS = (1, 2, 3, 1, 2, 3, 1, 2)


def many_owner_scenario(policy: str) -> Scenario:
    """perfbench's churn-8t shape, scaled down: of 8 tenants, 3 and 5 leave,
    7 and 8 arrive late, and each shifts its skew twice."""
    n = 9_000
    spans = {
        3: {"active_until": n // 2},
        5: {"active_until": 3 * n // 4},
        7: {"active_from": n // 4},
        8: {"active_from": n // 4},
    }
    tenants = []
    for tid, (alpha, weight) in enumerate(zip(MANY_ALPHAS, MANY_WEIGHTS), start=1):
        low = max(0.5, round(alpha - 0.3, 6))
        phases = (WorkloadPhase(alpha), WorkloadPhase(low, n // 3), WorkloadPhase(alpha, 2 * n // 3))
        tenants.append(
            spec(tid, 500, alpha, 0.4, hard=0.2, weight=weight, phases=phases, **spans.get(tid, {}))
        )
    layout = None
    if policy.startswith("hybrid"):
        layout = RegionLayout(dc_sizes={tid: 10 for tid in range(1, 9)}, sc_size=160)
    return Scenario(
        capacity=240,
        policy=policy,
        tenants=tenants,
        layout=layout,
        total_txns=n,
        window_length=50,
        seed=4,
        sample_every=250,
    )


def stream_digest(name: str) -> tuple[str, int]:
    buf = io.StringIO()
    write_trace(generate_stream(*STREAMS[name]), buf)
    text = buf.getvalue()
    return hashlib.sha256(text.encode()).hexdigest(), text.count("\n")


def compare_digests(replacement: str) -> dict:
    results = compare_policies(compare_scenario(replacement), POLICIES)
    return {policy: digest(records) for policy, records in results.items()}


@pytest.mark.parametrize("replacement", sorted(COMPARE_DIGESTS))
def test_compare_outputs_unchanged(replacement):
    assert compare_digests(replacement) == COMPARE_DIGESTS[replacement]


def test_selfish_churn_output_unchanged():
    assert digest(run_scenario(churn_scenario())) == CHURN_DIGEST


@pytest.mark.parametrize("policy", sorted(MANY_OWNER_DIGESTS))
def test_many_owner_churn_unchanged(policy):
    assert digest(run_scenario(many_owner_scenario(policy))) == MANY_OWNER_DIGESTS[policy]


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_stream_unchanged(name):
    assert stream_digest(name) == STREAM_DIGESTS[name]


if __name__ == "__main__":
    print({r: compare_digests(r) for r in sorted(COMPARE_DIGESTS)})
    print(repr(digest(run_scenario(churn_scenario()))))
    print({p: digest(run_scenario(many_owner_scenario(p))) for p in sorted(MANY_OWNER_DIGESTS)})
    print({name: stream_digest(name) for name in sorted(STREAMS)})
