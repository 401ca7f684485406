import dataclasses
import re
from pathlib import Path

import hashcast
from hashcast.config import ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    missing = [name for name in hashcast.__all__ if not hasattr(hashcast, name)]
    assert missing == []


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario config keys", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"`([a-z_]+)`", section))
    assert documented == {f.name for f in dataclasses.fields(ScenarioConfig)}
