"""Scenario and sweep configuration with strict validation.

Configs load from JSON.  Unknown keys and invalid combinations are rejected
with an error naming the offending key, so a typo never silently falls back
to a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .verification import SetParams

MODES = ("vericom", "baseline")
TOPOLOGIES = ("random-connected", "chain", "star")
TRUST_MODES = ("trusted", "untrusted")
ATTACKS = ("none", "false-verification", "fake-transaction", "dropping")


class ConfigError(ValueError):
    pass


# The JSON types a field of each declared type accepts, and their name in
# errors.  `type(...) in` rejects booleans where a number is required, and a
# float field also takes a JSON integer.  A tuple field takes a list whose
# every item is of the listed types.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
    "tuple[int, ...]": ((int,), "a list of integers"),
    "tuple[str, ...]": ((str,), "a list of strings"),
    "ScenarioConfig": ((dict,), "a JSON object"),
}


def _typed_fields(cls, data: dict, noun: str) -> dict:
    """`data` with lists as tuples, once every key is a field of `cls` holding its type.

    Any other key or value is a ConfigError naming the key; `noun` names
    the file kind in the unknown-key error.
    """
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ConfigError(f"unknown {noun} key: {unknown[0]}")
    typed = dict(data)
    for key, value in data.items():
        types, what = _JSON_TYPES[declared[key]]
        if declared[key].startswith("tuple["):
            ok = type(value) in (list, tuple) and all(type(v) in types for v in value)
        else:
            ok = type(value) in types
        if not ok:
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        if type(value) is list:
            typed[key] = tuple(value)
    return typed


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str = "vericom"
    num_iot_nodes: int = 30
    num_backbone: int = 5
    backbone_topology: str = "random-connected"
    link_delay_ms: float = 1.0
    backbone_capacity: int = 0  # 0 = auto: ceil((num_iot_nodes + auditor) / live backbone)
    num_validators: int = 10
    n: int = 1
    m: int = 1
    block_size: int = 10
    tx_count: int = 100
    epochs: int = 1
    trust_mode: str = "trusted"
    attack: str = "none"
    adversary_ids: tuple[int, ...] = ()
    seed: int = 1
    payload_size: int = 510
    auditor: bool = True
    monitor_window_ms: float = 500.0
    access_delay_min_ms: float = 1.0
    access_delay_max_ms: float = 2.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.backbone_topology not in TOPOLOGIES:
            raise ConfigError(
                f"backbone_topology must be one of {TOPOLOGIES}, got {self.backbone_topology!r}"
            )
        if self.trust_mode not in TRUST_MODES:
            raise ConfigError(
                f"trust_mode must be one of {TRUST_MODES}, got {self.trust_mode!r}"
            )
        if self.attack not in ATTACKS:
            raise ConfigError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        for key in ("num_iot_nodes", "num_backbone", "num_validators", "block_size", "epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        if self.tx_count <= 0:
            raise ConfigError("tx_count must be positive")
        if self.num_validators > self.num_iot_nodes:
            raise ConfigError("num_validators cannot exceed num_iot_nodes")
        if self.backbone_capacity < 0:
            raise ConfigError("backbone_capacity must be non-negative (0 = auto)")
        if self.payload_size < 16:  # a sender's transactions differ only in their payloads
            raise ConfigError(f"payload_size must be at least 16, got {self.payload_size}")
        for key in (
            "link_delay_ms",
            "monitor_window_ms",
            "access_delay_min_ms",
            "access_delay_max_ms",
        ):
            if not 0 < getattr(self, key) < math.inf:  # NaN fails both comparisons
                raise ConfigError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if self.access_delay_max_ms < self.access_delay_min_ms:
            raise ConfigError("access_delay_max_ms must be >= access_delay_min_ms")
        try:
            SetParams(n=self.n, m=self.m, num_validators=self.ring_size)
        except ValueError as exc:
            raise ConfigError(f"set parameters are inadmissible: {exc}") from exc
        self._validate_attack()

    def _validate_attack(self) -> None:
        if self.attack == "none":
            if self.adversary_ids:
                raise ConfigError("adversary_ids needs an attack; attack is 'none'")
            return
        if self.mode != "vericom":
            raise ConfigError("attack scenarios are defined for vericom mode only")
        if not self.adversary_ids:
            raise ConfigError(f"attack {self.attack!r} requires adversary_ids")
        if self.attack == "dropping":
            if self.trust_mode != "untrusted":
                raise ConfigError("attack 'dropping' requires trust_mode = untrusted")
            bad = [i for i in self.adversary_ids if not (0 <= i < self.num_backbone)]
            if bad:
                raise ConfigError(f"adversary_ids name nonexistent backbone nodes: {bad}")
            if len(set(self.adversary_ids)) >= self.num_backbone:
                raise ConfigError("cannot mark the whole backbone as dropping")
        else:
            if len(self.adversary_ids) > 1:
                ids = list(self.adversary_ids)
                raise ConfigError(f"attack {self.attack!r} takes one id in adversary_ids: {ids}")
            # only the first ring_size validators register for a range
            bad = [i for i in self.adversary_ids if not (0 <= i < self.ring_size)]
            if bad:
                raise ConfigError(
                    f"adversary_ids must name range-owning validators "
                    f"0..{self.ring_size - 1}, got {bad}"
                )
            self._validate_exclusions()

    def _validate_exclusions(self) -> None:
        """The range owners left once epoch 0's forgers are excluded must admit the wings.

        Under false-verification the honest wing mates (when m >= 1) or the
        auditor report the generator and the colluding main verifier; under
        fake-transaction only the auditor reports, naming the generator and
        all 2m+1 endorsers.  An attack nobody reports excludes nobody.
        """
        if self.epochs < 2:
            return
        if self.attack == "false-verification":
            excluded = 2 if self.m >= 1 or self.auditor else 0
        else:
            excluded = 2 * self.m + 2 if self.auditor else 0
        left = self.ring_size - excluded
        try:
            SetParams(n=self.n, m=self.m, num_validators=left)
        except ValueError as exc:
            raise ConfigError(
                f"attack {self.attack!r} excludes {excluded} of {self.ring_size} range "
                f"owners after epoch 0, leaving {left}, too few for the later epochs: {exc}"
            ) from exc

    @property
    def ring_size(self) -> int:
        """Range owners per epoch: the alphabet caps the ring at 62.

        Validator-role nodes beyond the cap stay in the verifier pool's
        routing tables but do not register for a range.
        """
        return min(self.num_validators, 62)

    def capacity(self, live_backbone: int) -> int:
        """Attachments per backbone node while `live_backbone` nodes are up."""
        if self.backbone_capacity > 0:
            return self.backbone_capacity
        extra = 1 if self.auditor else 0
        return -(-(self.num_iot_nodes + extra) // live_backbone)

    def txs_in_epoch(self, epoch: int) -> int:
        base, rem = divmod(self.tx_count, self.epochs)
        return base + (1 if epoch < rem else 0)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return cls(**_typed_fields(cls, data, "config"))


SWEEP_PARAMETERS = ("num_iot_nodes", "num_backbone", "num_validators")


def _check_parameter(parameter: str) -> None:
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"swept parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")


@dataclass(frozen=True)
class SweepSpec:
    base: ScenarioConfig
    parameter: str
    values: tuple[int, ...]
    modes: tuple[str, ...] = ("vericom",)
    repetitions: int = 1
    seed_base: int = 1

    def __post_init__(self):
        _check_parameter(self.parameter)
        for key in ("values", "modes"):
            if not getattr(self, key):
                raise ConfigError(f"sweep {key} must not be empty")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"sweep mode {mode!r} is not valid")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        # Every derived config must validate up front.
        for _, _ in self.expand():
            pass

    def expand(self) -> list[tuple[str, ScenarioConfig]]:
        """All derived configs in deterministic spec order."""
        runs = []
        for mode in self.modes:
            for value in self.values:
                for rep in range(self.repetitions):
                    seed = self.seed_base + rep
                    config = dataclasses.replace(
                        self.base, mode=mode, seed=seed, **{self.parameter: value}
                    )
                    runs.append((f"{mode}:{self.parameter}={value}:rep={rep}", config))
        return runs

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        typed = _typed_fields(cls, data, "sweep")
        if "base" not in data or "parameter" not in data or "values" not in data:
            raise ConfigError("sweep spec requires base, parameter, and values")
        parameter, values = typed["parameter"], typed["values"]
        _check_parameter(parameter)  # before the base keys, one of which it names
        for key in ("mode", "seed", parameter):
            if key in data["base"]:
                raise ConfigError(f"base must not set {key}: the sweep sets it in every run")
        # The base is checked with the first swept value, since it may not set its own.
        first = {parameter: values[0]} if values else {}
        base = ScenarioConfig.from_dict(dict(data["base"], **first))
        return cls(**dict(typed, base=base))


def _load(path: str, noun: str) -> dict:
    """The JSON object in the file at `path`; `noun` names the file kind in errors."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: {noun} must be a JSON object")
    return data


def load_config(path: str) -> ScenarioConfig:
    return ScenarioConfig.from_dict(_load(path, "config"))


def load_sweep(path: str) -> SweepSpec:
    return SweepSpec.from_dict(_load(path, "sweep spec"))
