"""The scenario configuration that README.md documents must still parse, and
every key it sets must name a field: scenario_from_json ignores other keys."""
from __future__ import annotations

import json
import re
from pathlib import Path

from tenantcache.harness import scenario_from_json, scenario_to_json

README = Path(__file__).resolve().parent.parent / "README.md"


def held_in(doc, full) -> bool:
    """Whether every key and value of doc is in full, at any depth."""
    if isinstance(doc, dict):
        return isinstance(full, dict) and all(k in full and held_in(v, full[k])
                                              for k, v in doc.items())
    if isinstance(doc, list):
        return len(doc) == len(full) and all(map(held_in, doc, full))
    return doc == full


def test_the_readme_scenario_config_parses_and_names_only_fields():
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    scenario = scenario_from_json(block)
    assert held_in(json.loads(block), scenario_to_json(scenario))
