"""The benchmark's tracer (perfbench/tracer.py) wraps the simulator's
functions and methods by name and reports a name it cannot find as absent.
Every name it wraps must still exist, and uninstalling it must put every
original back.  The tracer is read from perfbench/ and nothing there changes."""
from __future__ import annotations

import importlib.util
import types
from pathlib import Path

from tenantcache import cache_core, harness, metrics, sharing, workload

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_wraps_and_puts_each_back():
    owners = [harness, sharing, cache_core, metrics, workload, cache_core.SlotStore,
              metrics.HitRateTracker]
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = load_tracer().Tracer()
    tracer.install(types.SimpleNamespace(
        harness=harness, sharing=sharing, cache_core=cache_core, metrics=metrics,
        workload=workload,
    ))
    try:
        assert tracer.absent == set()
        assert harness.run_scenario is not before[harness]["run_scenario"]
        assert sharing.selfish_eligible is not before[sharing]["selfish_eligible"]
        assert cache_core.SlotStore.lookup is not before[cache_core.SlotStore]["lookup"]
    finally:
        tracer.uninstall()
    for owner, names in before.items():
        assert vars(owner).keys() == names.keys()
        assert [name for name, value in names.items() if vars(owner)[name] is not value] == []
