import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import hashcast
from hashcast.config import ScenarioConfig
from hashcast.simulation import EventQueue, execute

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_perfbench(path, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


def test_every_export_resolves():
    missing = [name for name in hashcast.__all__ if not hasattr(hashcast, name)]
    assert missing == []


def test_a_run_loads_no_cryptography(tmp_path):
    # `cryptography` is a test dependency: only `Ed25519Signer` imports it
    script = (
        "import sys; from hashcast.cli import main; "
        f"main(['run', '-c', {str(ROOT / 'presets' / 'attack-b.json')!r}, '-o', {str(tmp_path)!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cryptography'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # after the run's own summary


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario config keys", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"`([a-z_]+)`", section))
    assert documented == {f.name for f in dataclasses.fields(ScenarioConfig)}


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark tracer looks each of these up by name at install time
    tracer = load_perfbench(TRACER, monkeypatch)
    missing = []
    for module, name, _span in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"hashcast.{module}"), name, None)):
            missing.append(f"{module}.{name}")
    for module, cls, method, _span in tracer.METHODS:
        owner = getattr(importlib.import_module(f"hashcast.{module}"), cls, None)
        if method not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{cls}.{method}")
    assert missing == []


def test_every_scheduled_handler_is_traced(monkeypatch):
    # the tracer reports handler time only under the names in HANDLERS
    tracer = load_perfbench(TRACER, monkeypatch)
    workloads = load_perfbench(WORKLOADS, monkeypatch)
    scheduled = set()
    push = EventQueue.push

    def recording_push(queue, time, fn, *args):
        scheduled.add(fn.__name__.lstrip("_"))
        push(queue, time, fn, *args)

    monkeypatch.setattr(EventQueue, "push", recording_push)
    for workload in workloads.WORKLOADS:
        data = dict(workloads.scenario_dict(workload, 1), tx_count=200)
        execute(ScenarioConfig.from_dict(data))
    assert {"receive", "tx_delivered", "monitor_window"} <= scheduled
    assert scheduled <= set(tracer.HANDLERS)
