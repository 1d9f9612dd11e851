"""Trace-driven simulator for multi-tenant slot caches with per-tenant
hit-rate requirements: global/static baselines, max-min fair and selfish
sharing, and the hybrid dedicated/shared architecture."""

from .cache_core import (
    FCFS,
    LRU,
    SC,
    CacheError,
    NoCandidateError,
    RegionFullError,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
    dc_region,
)
from .harness import (
    POLICIES,
    CapacitySweepResult,
    ConfigurationError,
    InfeasibleTargetError,
    SampleRecord,
    Scenario,
    TenantSample,
    TenantSpec,
    capacity_sweep,
    compare_policies,
    min_slots_for_target,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    suggest_dc_size,
    write_records_csv,
    write_sweep_csv,
)
from .metrics import (
    GapReport,
    HitRateTracker,
    MetricsError,
    Requirement,
    check_objectives,
    ewma_update,
    gap_report,
)
from .sharing import (
    InsertOutcome,
    SharingStrategy,
    global_insert,
    hybrid_insert,
    maxmin_insert,
    predict_hit_rate,
    rank_donors,
    select_victim_tenant,
    selfish_eligible,
    selfish_select_victim,
    static_insert,
)
from .workload import (
    AccessEvent,
    TenantWorkload,
    WorkloadError,
    WorkloadPhase,
    activation_timeline,
    generate_stream,
    read_trace,
    write_trace,
    zipf_pmf,
)

__version__ = "0.1.0"
