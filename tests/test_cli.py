import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hashcast import cli
from hashcast.cli import CSV_HEADER, main
from hashcast.config import (
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    load_config,
    load_sweep,
)
from hashcast.simulation import RunError

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_json(tmp_path / "c.json", {})
        config = load_config(path)
        assert config.mode == "vericom"
        assert config.tx_count > 0

    def test_unknown_key_named(self, tmp_path):
        removed = ("rui_period_ms", "drop_rate", "monitor_group_size")
        constants = ("gamma_ms", "tx_interval_ms", "epoch_margin_ms", "tf", "verify_cost_ms")
        for key in ("num_iot_nodez",) + removed + constants:
            path = write_json(tmp_path / "c.json", {key: 5})
            with pytest.raises(ConfigError, match=key):
                load_config(path)

    def test_inadmissible_set_params(self, tmp_path):
        path = write_json(
            tmp_path / "c.json", {"n": 3, "m": 3, "num_validators": 10, "num_iot_nodes": 10}
        )
        with pytest.raises(ConfigError, match="3n\\+2m"):
            load_config(path)

    def test_negative_tx_count(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"tx_count": -5})
        with pytest.raises(ConfigError, match="tx_count"):
            load_config(path)

    def test_short_payload_rejected(self):
        # a sender's transactions differ only in their payloads, so a short
        # payload repeats an id
        for size in (0, 1, 15):
            with pytest.raises(ConfigError, match="payload_size must be at least 16"):
                ScenarioConfig(payload_size=size)
        assert ScenarioConfig(payload_size=16).payload_size == 16

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_bad_enum_values(self, tmp_path):
        for key, value in (
            ("mode", "multicast"),
            ("backbone_topology", "mesh"),
            ("trust_mode", "semi"),
            ("attack", "ddos"),
        ):
            path = write_json(tmp_path / "c.json", {key: value})
            with pytest.raises(ConfigError, match=key):
                load_config(path)


class TestSweepSpec:
    def test_expansion_order_and_count(self):
        spec = SweepSpec(
            base=ScenarioConfig(),
            parameter="num_iot_nodes",
            values=(10, 50, 100, 200),
            modes=("vericom", "baseline"),
        )
        runs = spec.expand()
        assert len(runs) == 8
        assert runs[0][1].mode == "vericom" and runs[0][1].num_iot_nodes == 10
        assert runs[-1][1].mode == "baseline" and runs[-1][1].num_iot_nodes == 200

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(base=ScenarioConfig(), parameter="tx_count", values=(1,))

    def test_derived_configs_validated(self):
        # sweeping validators above the population must fail validation
        with pytest.raises(ConfigError):
            SweepSpec(
                base=ScenarioConfig(num_iot_nodes=20),
                parameter="num_validators",
                values=(30,),
            )


class TestPresets:
    def test_all_presets_load(self):
        sweeps = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11"]
        for name in sweeps:
            spec = load_sweep(str(PRESETS / f"{name}.json"))
            assert spec.values
        for name in ["attack-a", "attack-b", "attack-c"]:
            config = load_config(str(PRESETS / f"{name}.json"))
            assert config.attack != "none"


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path):
        config = write_json(
            tmp_path / "c.json",
            {"num_iot_nodes": 15, "tx_count": 10, "block_size": 2, "seed": 5},
        )
        out = tmp_path / "out"
        assert main(["run", "-c", config, "-o", str(out)]) == 0
        csv = (out / "runs.csv").read_text(encoding="utf-8").splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 2
        assert csv[1].startswith("vericom,15,")
        assert (out / "events.log").exists()
        assert (out / "summary.txt").exists()
        assert (out / "ledgers.txt").exists()

    def test_seed_and_mode_overrides(self, tmp_path):
        config = write_json(
            tmp_path / "c.json", {"num_iot_nodes": 15, "tx_count": 10, "block_size": 2}
        )
        out = tmp_path / "out"
        assert main(["run", "-c", config, "-o", str(out), "--seed", "9", "--mode", "baseline"]) == 0
        row = (out / "runs.csv").read_text(encoding="utf-8").splitlines()[1]
        fields = row.split(",")
        assert fields[0] == "baseline"
        assert fields[6] == "9"

    def test_reproducible_outputs(self, tmp_path):
        config = write_json(
            tmp_path / "c.json",
            {"num_iot_nodes": 15, "tx_count": 10, "block_size": 2, "seed": 5},
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "-c", config, "-o", str(out)]) == 0
            outs.append(
                (
                    (out / "runs.csv").read_bytes(),
                    (out / "events.log").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {"tx_count": -1})
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert "tx_count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        path.write_bytes(b"\xff\xfe{}")
        flag = "-c" if command == "run" else "-s"
        assert main([command, flag, str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8") and err.count("\n") == 1

    def test_ring_shrunk_by_exclusions_is_rejected_up_front(self, tmp_path, capsys):
        # epoch 0's colluders would be excluded, leaving epoch 1 with 3 of 7 validators
        data = {
            "num_iot_nodes": 20,
            "num_validators": 7,
            "num_backbone": 3,
            "n": 1,
            "m": 1,
            "block_size": 2,
            "tx_count": 30,
            "epochs": 2,
            "attack": "fake-transaction",
            "adversary_ids": [0],
            "seed": 5,
        }
        config = write_json(tmp_path / "c.json", data)
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: attack 'fake-transaction' excludes 4 of 7 range owners")
        assert "leaving 3" in err and "3n+2m = 5" in err

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("debug", "DEBUG"),
            ("Info", "INFO"),
            ("WARNING", "WARNING"),
            ("error", "ERROR"),
            ("CRITICAL", "CRITICAL"),
            ("basic_format", "WARNING"),
            ("warn", "WARNING"),
            ("notset", "WARNING"),
            ("", "WARNING"),
        ],
    )
    def test_log_level_names(self, tmp_path, monkeypatch, value, expected):
        seen = []

        def record(level):  # checks `level` as basicConfig does: ValueError if unknown
            seen.append(logging.Logger("probe", level).level)

        monkeypatch.setattr(cli.logging, "basicConfig", record)
        monkeypatch.setenv("HASHCAST_LOG", value)
        config = write_json(tmp_path / "c.json", {"num_iot_nodes": 15, "tx_count": 10})
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 0
        assert seen == [getattr(logging, expected)]

    def test_unknown_log_level_runs_at_warning(self, tmp_path):
        # a fresh interpreter: basicConfig sets the level only on a root logger with no handlers
        config = write_json(tmp_path / "c.json", {"num_iot_nodes": 15, "tx_count": 10})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, HASHCAST_LOG="basic_format", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "hashcast", "run", "-c", config, "-o", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_run_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def stuck(config):
            raise RunError("epoch 1: 3 validators registered after exclusions")

        monkeypatch.setattr(cli, "execute", stuck)
        config = write_json(tmp_path / "c.json", {"num_iot_nodes": 15, "tx_count": 10})
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: epoch 1: 3 validators registered after exclusions\n"

    def test_adversary_beyond_ring_cap_rejected(self, tmp_path, capsys):
        # validators 62..79 never register for a range, so 70 cannot forge
        data = {
            "num_iot_nodes": 80,
            "num_validators": 80,
            "attack": "fake-transaction",
            "adversary_ids": [70],
        }
        with pytest.raises(ConfigError, match="adversary_ids"):
            ScenarioConfig.from_dict(data)
        config = write_json(tmp_path / "c.json", data)
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert "adversary_ids" in capsys.readouterr().err

    @pytest.mark.parametrize("attack", ["false-verification", "fake-transaction"])
    def test_second_forging_generator_rejected(self, tmp_path, capsys, attack):
        # one generator forges the block; a second id would be validated, then ignored
        data = {"num_iot_nodes": 20, "attack": attack, "adversary_ids": [0, 5]}
        with pytest.raises(ConfigError, match="adversary_ids"):
            ScenarioConfig.from_dict(data)
        config = write_json(tmp_path / "c.json", data)
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert "adversary_ids" in capsys.readouterr().err
        assert ScenarioConfig.from_dict(dict(data, adversary_ids=[5])).adversary_ids == (5,)

    @pytest.mark.parametrize("mode", ["vericom", "baseline"])
    def test_adversary_ids_without_an_attack_rejected(self, tmp_path, capsys, mode):
        # with attack "none" the ids would be validated, then ignored
        data = {"mode": mode, "adversary_ids": [0]}
        with pytest.raises(ConfigError, match="adversary_ids"):
            ScenarioConfig.from_dict(data)
        config = write_json(tmp_path / "c.json", data)
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert "adversary_ids" in capsys.readouterr().err
        assert ScenarioConfig.from_dict(dict(data, adversary_ids=[])).adversary_ids == ()

    def test_adversary_ids_not_a_list_rejected(self, tmp_path, capsys):
        data = {"attack": "fake-transaction", "adversary_ids": 3}
        with pytest.raises(ConfigError, match="adversary_ids"):
            ScenarioConfig.from_dict(data)
        config = write_json(tmp_path / "c.json", data)
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert "adversary_ids" in capsys.readouterr().err

    def test_adversary_ids_not_integers_rejected(self, tmp_path, capsys):
        data = {"attack": "fake-transaction", "adversary_ids": ["a"]}
        config = write_json(tmp_path / "c.json", data)
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert "adversary_ids" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "x"),
            ("auditor", "no"),
            ("link_delay_ms", True),
            ("num_iot_nodes", "5"),
            ("tx_count", True),
            ("payload_size", 1.0),
        ],
    )
    def test_mistyped_key_is_one_error_line(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.from_dict({key: value})
        config = write_json(tmp_path / "c.json", {key: value})
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    def test_float_key_takes_json_integer(self):
        assert ScenarioConfig.from_dict({"link_delay_ms": 2}).link_delay_ms == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "key", ["link_delay_ms", "monitor_window_ms", "access_delay_min_ms", "access_delay_max_ms"]
    )
    def test_non_finite_float_is_one_error_line(self, tmp_path, capsys, key, value):
        data = {"num_iot_nodes": 12, "tx_count": 6, "block_size": 2, key: value}
        config = write_json(tmp_path / "c.json", data)  # json writes NaN and Infinity
        assert main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig(**data)  # a config built in code is checked too


# Every JSON type a test value can have, and the declared field types that
# accept it: a float field also takes an integer, and no number field takes
# a boolean.
JSON_SAMPLES = [
    ("x", {"str"}),
    (1, {"int", "float"}),
    (1.5, {"float"}),
    (True, {"bool"}),
    (None, set()),
    ([1], {"tuple[int, ...]"}),
    (["x"], {"tuple[str, ...]"}),
    ({}, {"ScenarioConfig"}),
]
SWEEP_REQUIRED = {"base": {}, "parameter": "num_iot_nodes", "values": [12]}


class TestFieldTypes:
    """Both config files are read by one rule: each field takes JSON of its declared type."""

    @pytest.mark.parametrize(
        "cls, field",
        [(cls, f) for cls in (ScenarioConfig, SweepSpec) for f in dataclasses.fields(cls)],
        ids=lambda v: getattr(v, "__name__", getattr(v, "name", None)),
    )
    def test_wrong_type_is_one_error_naming_the_field(self, tmp_path, capsys, cls, field):
        required = SWEEP_REQUIRED if cls is SweepSpec else {}
        wrong = [value for value, accepted in JSON_SAMPLES if field.type not in accepted]
        assert len(wrong) < len(JSON_SAMPLES)  # some sample has the field's declared type
        for value in wrong:
            with pytest.raises(ConfigError) as caught:
                cls.from_dict(dict(required, **{field.name: value}))
            assert str(caught.value).startswith(f"{field.name} must be ")
        path = write_json(tmp_path / "f.json", dict(required, **{field.name: wrong[0]}))
        command = ["sweep", "-s"] if cls is SweepSpec else ["run", "-c"]
        assert main(command + [path, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field.name} must be ") and err.count("\n") == 1


# Expected sha256 of each output file.  Any change to a run's outputs is a
# change of behaviour; the attack presets' values equal those recorded in
# perfbench/preset_references.json.
GOLDEN_OUTPUTS = {
    "attack-a": {
        "events.log": "f3c5318315ae28cc69f5884211a0c828fd2d98bb7cfd589944b304f68e6a42bf",
        "ledgers.txt": "17eb1346dee5bbaae4a7236df9f87dd2134fc0d8b92ab2bce3b9e4bee1592f05",
        "runs.csv": "ff6094273f05de55b1ca741bb40478920f2a026d7714e20b75f2f427f709f12a",
        "summary.txt": "a0e924e217d5f70083c5aecdd3a7031924eb26e9e97a0382e3ee07ad9ca87e1e",
    },
    "attack-b": {
        "events.log": "42dcb3ecfc922638a4d3fe95763e6008e1e8a90a457cc13b36150ca3dac0d3be",
        "ledgers.txt": "193fb18caf6bf906294568eb96fc64937327195f7b380645f50e8dc5c1b26639",
        "runs.csv": "a3b851fe288a4c37ca6f0a1b20edf855804a9f92d487fbfcb9e89a5ba5752afc",
        "summary.txt": "87d3f7aaa34ac9f5445ce7a2aa34677034c9267afb2ccc9e9bf9b9f6cb0fd424",
    },
    "attack-c": {
        "events.log": "4b9dc2805bf7fec95f6787cf824c794dd2d18320d29552ca2a453572c9b5fdc0",
        "ledgers.txt": "672ca53726046fff1c9bfd3324ff9a4c4eca9df3053ba5f011f87d112728f4a9",
        "runs.csv": "8c05c5c5fc63750d3908c6f07613351359c08a6aab33a3390dcc1c0748eeb560",
        "summary.txt": "6c7a986d16f4341a5c7b6af8aebc2c85232038d2521df6ba9842813cc722e107",
    },
    "baseline-small": {
        "events.log": "259d6e2bc67c788fa9ed428701a87aec4f214c3e6a94052d96599e78faa9acce",
        "ledgers.txt": "5d0772831995458ed913df082fcf95c6194c9a4f4d40a51dab090469f2ac2a25",
        "runs.csv": "c29d94aef36f69bcedf5213f74185b422bc150e2086008901e79817a26b18ec5",
        "summary.txt": "aa1eb68ba568eee603357cb7b38fbb3d76d0208d57e002fc8f67258c488a2199",
    },
    "untrusted-small": {
        "events.log": "45870fc8b2b26aaf0ed5f84518f34749badf5189e3cae95d53fd25e5b255116a",
        "ledgers.txt": "80d8a9d7b2db5cab6fad219936d726cf626c1e286e921555d2baaf08cca4fc2b",
        "runs.csv": "5736cf1bf4148aff1f5ea753b586c9b76b821e96e1a1d02168cbdee3bdfa4c9a",
        "summary.txt": "38226d41e01c7e33ef2c303cafd02a21e0c6d1a55fb47ae01a966db60821418b",
    },
}

BASELINE_SMALL = {
    "mode": "baseline",
    "num_iot_nodes": 20,
    "num_validators": 10,
    "block_size": 3,
    "tx_count": 30,
    "epochs": 2,
    "seed": 7,
}

# Multi-transaction blocks, a dropping backbone node and one rebuild.
UNTRUSTED_SMALL = {
    "num_iot_nodes": 24,
    "num_validators": 12,
    "num_backbone": 5,
    "backbone_topology": "random-connected",
    "backbone_capacity": 10,
    "block_size": 3,
    "tx_count": 60,
    "epochs": 2,
    "trust_mode": "untrusted",
    "monitor_window_ms": 30.0,
    "attack": "dropping",
    "adversary_ids": [1],
    "seed": 11,
}

SMALL_CONFIGS = {"baseline-small": BASELINE_SMALL, "untrusted-small": UNTRUSTED_SMALL}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
    def test_outputs_match_recorded_hashes(self, tmp_path, name):
        if name in SMALL_CONFIGS:
            config = write_json(tmp_path / "c.json", SMALL_CONFIGS[name])
        else:
            config = str(PRESETS / f"{name}.json")
        out = tmp_path / "out"
        assert main(["run", "-c", config, "-o", str(out)]) == 0
        hashes = {
            file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in GOLDEN_OUTPUTS[name]
        }
        assert hashes == GOLDEN_OUTPUTS[name]


class TestSweepCommand:
    def test_sweep_csv_cardinality(self, tmp_path):
        spec = write_json(
            tmp_path / "s.json",
            {
                "base": {"tx_count": 6, "block_size": 2},
                "parameter": "num_iot_nodes",
                "values": [12, 16],
                "modes": ["vericom", "baseline"],
                "seed_base": 4,
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "-s", spec, "-o", str(out)]) == 0
        rows = (out / "runs.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4

    def test_values_not_a_list_rejected(self, tmp_path, capsys):
        data = {"base": {}, "parameter": "num_iot_nodes", "values": 12}
        with pytest.raises(ConfigError, match="values"):
            SweepSpec.from_dict(data)
        spec = write_json(tmp_path / "s.json", data)
        assert main(["sweep", "-s", spec, "-o", str(tmp_path / "out")]) == 2
        assert "values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("values", ["a"]),
            ("values", [True]),
            ("repetitions", "2"),
            ("seed_base", 1.5),
            ("base", 12),
            ("modes", []),
        ],
    )
    def test_mistyped_key_is_one_error_line(self, tmp_path, capsys, key, value):
        data = {"base": {}, "parameter": "num_iot_nodes", "values": [12], key: value}
        spec = write_json(tmp_path / "s.json", data)
        assert main(["sweep", "-s", spec, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("key", ["mode", "seed", "num_backbone"])
    def test_base_may_not_set_a_swept_key(self, tmp_path, capsys, key):
        value = {"mode": "vericom", "seed": 3, "num_backbone": 4}[key]
        data = {"base": {key: value}, "parameter": "num_backbone", "values": [4, 6]}
        with pytest.raises(ConfigError, match=f"base must not set {key}"):
            SweepSpec.from_dict(data)
        spec = write_json(tmp_path / "s.json", data)
        assert main(["sweep", "-s", spec, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: base must not set {key}") and err.count("\n") == 1

    def test_unknown_parameter_is_named_before_the_base_keys(self, tmp_path, capsys):
        data = {"base": {"tx_count": 5}, "parameter": "tx_count", "values": [1]}
        spec = write_json(tmp_path / "s.json", data)
        assert main(["sweep", "-s", spec, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: swept parameter must be one of") and err.count("\n") == 1
        assert "'tx_count'" in err

    def test_base_is_checked_with_the_first_swept_value(self):
        # 50 validators need more than the default 30 nodes the base would have
        data = {"base": {"num_validators": 50}, "parameter": "num_iot_nodes", "values": [100]}
        [(_, config)] = SweepSpec.from_dict(data).expand()
        assert (config.num_iot_nodes, config.num_validators) == (100, 50)

    def test_header_is_stable(self):
        assert CSV_HEADER.count(",") == 16
        assert CSV_HEADER.split(",")[0] == "mode"
        assert CSV_HEADER.split(",")[-1] == "detection_time_ms"
