import io
import json

import pytest

from tenantcache.cache_core import RegionLayout
from tenantcache.harness import (
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    CapacitySweepResult,
    ConfigurationError,
    InfeasibleTargetError,
    Scenario,
    TenantSpec,
    capacity_sweep,
    compare_policies,
    derive_layout,
    meets_target,
    min_slots_for_target,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    write_records_csv,
    write_sweep_csv,
)
from tenantcache.metrics import Requirement
from tenantcache.workload import TenantWorkload, WorkloadPhase

FAST = dict(min_txns=4_000, txns_per_slot=4)


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
        for r in run_scenario(small_scenario()):
            assert r.min_gap == pytest.approx(min(t.gap for t in r.tenants.values()))

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


    @pytest.mark.parametrize("policy", ["global", "maxmin_fair"])
    def test_insert_looked_up_on_module_at_run_start(self, monkeypatch, policy):
        import tenantcache.harness as harness

        name = "global_insert" if policy == "global" else "maxmin_insert"
        real = getattr(harness, name)
        calls = []

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(harness, name, counting)
        s = small_scenario(policy=policy)
        run_scenario(s)
        assert len(calls) == s.total_txns


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


class TestCapacitySearch:
    def test_target_zero_returns_lower_bound(self):
        slots = min_slots_for_target(
            "global", [tenant(1)], 0.0, lower=8, upper=64, resolution=8, trials=1, **FAST
        )
        assert slots == 8

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigurationError):
            min_slots_for_target("global", [tenant(1)], 1.5)

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
        ],
        ids=["string-capacity", "hard-above-soft", "zero-weight", "array-document",
             "unknown-replacement", "negative-region"],
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

    def test_parse_targets_range_and_list(self):
        from tenantcache.cli import _parse_targets

        assert _parse_targets("0.3:0.6:0.1") == pytest.approx([0.3, 0.4, 0.5, 0.6])
        assert _parse_targets("0.25,0.75") == [0.25, 0.75]
