"""Golden fingerprints of every bundled preset, produced through the CLI.

    python3 perfbench/presets.py            # compare with preset_references.json
    python3 perfbench/presets.py --record   # store the current fingerprints

Each preset in `presets/` runs through `hashcast.cli.main`: `run` for a
scenario config, `sweep` for a sweep spec (a JSON object with a `base` key).
Outputs go to a temporary directory inside the repository, and the sha256
of each of `runs.csv`, `events.log`, `summary.txt` and `ledgers.txt` that the
command writes is compared with the stored reference.  Nothing is timed.
The exit status is 1 if any output differs from its reference or has none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRESETS = ROOT / "presets"
REFERENCES = HERE / "preset_references.json"
OUTPUTS = ("runs.csv", "events.log", "summary.txt", "ledgers.txt")


def preset_fingerprints(preset: Path, scratch: Path) -> dict[str, str]:
    from hashcast.cli import main as hashcast_main

    out = scratch / preset.stem
    is_sweep = "base" in json.loads(preset.read_text(encoding="utf-8"))
    argv = ["sweep", "-s", str(preset)] if is_sweep else ["run", "-c", str(preset)]
    with contextlib.redirect_stdout(io.StringIO()):
        status = hashcast_main(argv + ["-o", str(out)])
    if status != 0:
        raise RuntimeError(f"hashcast {argv[0]} {preset.name} exited with {status}")
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUTS
        if (out / name).exists()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="store the current fingerprints")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hashcast" / "__init__.py").is_file():
        print(f"error: simulator source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-presets-") as scratch:
        current = {
            preset.name: preset_fingerprints(preset, Path(scratch))
            for preset in sorted(PRESETS.glob("*.json"))
        }
    if args.record:
        REFERENCES.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {sum(len(v) for v in current.values())} fingerprints")
        return 0

    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    status = 0
    for preset, files in current.items():
        expected_files = references.get(preset, {})
        for name in sorted(set(files) | set(expected_files)):
            value, expected = files.get(name), expected_files.get(name)
            if value is None:
                verdict = "NOT WRITTEN"
            elif expected is None:
                verdict = "no reference"
            else:
                verdict = "ok" if value == expected else "CHANGED"
            if verdict != "ok":
                status = 1
            print(f"{preset:<16} {name:<12} {verdict}")
    for preset in sorted(set(references) - set(current)):
        print(f"{preset:<16} missing from presets/")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
