import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import hashcast
from hashcast.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_export_resolves():
    missing = [name for name in hashcast.__all__ if not hasattr(hashcast, name)]
    assert missing == []


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario config keys", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"`([a-z_]+)`", section))
    assert documented == {f.name for f in dataclasses.fields(ScenarioConfig)}


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark tracer looks each of these up by name at install time
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses resolve through it
    spec.loader.exec_module(tracer)
    missing = []
    for module, name, _span in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"hashcast.{module}"), name, None)):
            missing.append(f"{module}.{name}")
    for module, cls, method, _span in tracer.METHODS:
        owner = getattr(importlib.import_module(f"hashcast.{module}"), cls, None)
        if method not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{cls}.{method}")
    assert missing == []
