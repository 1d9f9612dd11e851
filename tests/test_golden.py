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
from tenantcache.workload import TenantWorkload, WorkloadPhase

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


def compare_digests(replacement: str) -> dict:
    results = compare_policies(compare_scenario(replacement), POLICIES)
    return {policy: digest(records) for policy, records in results.items()}


@pytest.mark.parametrize("replacement", sorted(COMPARE_DIGESTS))
def test_compare_outputs_unchanged(replacement):
    assert compare_digests(replacement) == COMPARE_DIGESTS[replacement]


def test_selfish_churn_output_unchanged():
    assert digest(run_scenario(churn_scenario())) == CHURN_DIGEST


if __name__ == "__main__":
    print({r: compare_digests(r) for r in sorted(COMPARE_DIGESTS)})
    print(repr(digest(run_scenario(churn_scenario()))))
