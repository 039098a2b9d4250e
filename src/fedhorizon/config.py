"""Experiment configuration: defaults, config-file parsing, CLI overrides
and deterministic hashing of the fully resolved configuration.

Config files are flat ``key = value`` text with ``[section]`` headers.
Recognized sections: [synth], [data], [train], [run].
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field, asdict

from .schema import ICU_NAMES
from .synthgen import DEFAULT_COUNTS, DEFAULT_SHIFTS, SynthConfig


class ConfigError(ValueError):
    pass


VALID_SETTINGS = ("local", "federated", "central")


@dataclass
class ExperimentConfig:
    # data source: a dataset directory produced by `synth` or `ingest`-able CSVs
    data_dir: str = "data"
    settings: tuple = ("local", "federated", "central")
    rounds: int = 50
    local_epochs: int = 3
    folds: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-3
    pos_weight: str = "1.0"  # numeric literal or "auto" (N_neg / N_pos)
    threshold: float = 0.5
    time_channel: bool = True
    fixed_horizons: tuple = (25, 15, 5)
    seed: int = 42
    out_dir: str = "out"
    patience: int = 3
    min_delta: float = 1e-4
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    lstm_units: int = 16
    lstm_layers: int = 3
    dense_units: int = 8
    dropout: float = 0.2
    dtype: str = "float64"
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self) -> None:
        for s in self.settings:
            if s not in VALID_SETTINGS:
                raise ConfigError(f"unknown setting {s!r}")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError("threshold must lie in (0, 1)")
        for h in self.fixed_horizons:
            if not (1 <= h <= 25):
                raise ConfigError(f"fixed horizon {h} outside [1, 25]")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be 'float64' or 'float32', "
                              f"got {self.dtype!r}")
        if self.pos_weight != "auto":
            try:
                if float(self.pos_weight) <= 0:
                    raise ValueError
            except ValueError:
                raise ConfigError(
                    f"pos_weight must be 'auto' or a positive number, "
                    f"got {self.pos_weight!r}") from None
        self.synth.validate()

    @property
    def client_pos_weight(self) -> float | None:
        """``pos_weight`` as ``ClientState`` takes it: None for auto."""
        return None if self.pos_weight == "auto" else float(self.pos_weight)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


_EXPECTED = {int: "an integer", float: "a number", _parse_bool: "a boolean"}


def _convert(convert, raw, section: str | None, key: str):
    """``convert(raw)``, or a ConfigError naming where the value came from
    (a ``[section]`` of the config file, or an override), the key and the
    value."""
    try:
        return convert(raw)
    except (TypeError, ValueError):
        where = f"[{section}]" if section else "override"
        raise ConfigError(f"{where} {key} = {raw!r}: expected "
                          f"{_EXPECTED[convert]}") from None


def load_config_file(path: str) -> dict:
    """Read a config file into a {section: {key: str}} dict."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # ICU names are case sensitive
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return {section: dict(parser[section]) for section in parser.sections()}


def resolve_config(file_path: str | None = None, overrides: dict | None = None
                   ) -> ExperimentConfig:
    """Defaults, then config file values, then CLI overrides."""
    cfg = ExperimentConfig()
    counts = dict(DEFAULT_COUNTS)
    shifts = dict(DEFAULT_SHIFTS)
    synth_kwargs = {}

    if file_path:
        data = load_config_file(file_path)
        synth_section = data.pop("synth", {})
        for key, raw in synth_section.items():
            if key.startswith("counts."):
                counts[key.split(".", 1)[1]] = _convert(int, raw, "synth", key)
            elif key.startswith("shift."):
                shifts[key.split(".", 1)[1]] = _convert(float, raw, "synth",
                                                        key)
            elif key in _SYNTH_FLOAT_KEYS:
                synth_kwargs[key] = _convert(float, raw, "synth", key)
            elif key == "seed":
                synth_kwargs["seed"] = _convert(int, raw, "synth", key)
            else:
                raise ConfigError(f"unknown [synth] key {key!r}")
        for section in data:
            if section not in ("data", "train", "run"):
                raise ConfigError(f"unknown config section [{section}]")
        for section, pairs in data.items():
            _apply_overrides(cfg, pairs, section)

    if overrides:
        overrides = {k: v for k, v in overrides.items() if v is not None}
        for key in _SYNTH_FLOAT_KEYS:
            if key in overrides:
                synth_kwargs[key] = _convert(float, overrides.pop(key), None,
                                             key)
        _apply_overrides(cfg, overrides)

    synth_kwargs.setdefault("seed", cfg.seed)
    cfg.synth = SynthConfig(counts=counts, shifts=shifts, **synth_kwargs)
    cfg.validate()
    return cfg


_SYNTH_FLOAT_KEYS = ("prevalence", "missingness", "signal_amp",
                     "signal_lead", "signal_base", "onset_bias", "amp_jitter",
                     "slow_frac", "slow_level", "sign_flip_p", "noise_scale",
                     "ar_rho")
_INT_KEYS = {"rounds", "local_epochs", "folds", "batch_size", "seed", "patience",
             "lstm_units", "lstm_layers", "dense_units"}
_FLOAT_KEYS = {"learning_rate", "threshold", "min_delta", "val_fraction",
               "test_fraction", "dropout"}
_BOOL_KEYS = {"time_channel"}
_STR_KEYS = {"data_dir", "out_dir", "pos_weight", "dtype"}


def _apply_overrides(cfg: ExperimentConfig, values: dict,
                     section: str | None = None) -> None:
    """Set ``values`` on ``cfg``; ``section`` names the config-file section
    they come from (None for overrides) in error messages."""
    for key, raw in values.items():
        if key in _INT_KEYS:
            setattr(cfg, key, _convert(int, raw, section, key))
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, _convert(float, raw, section, key))
        elif key in _BOOL_KEYS:
            setattr(cfg, key, raw if isinstance(raw, bool)
                    else _convert(_parse_bool, raw, section, key))
        elif key in _STR_KEYS:
            setattr(cfg, key, str(raw))
        elif key == "settings":
            if isinstance(raw, str):
                raw = tuple(s.strip() for s in raw.split(",") if s.strip())
            cfg.settings = tuple(raw)
        elif key == "fixed_horizons":
            if isinstance(raw, str):
                raw = [s for s in raw.split(",") if s.strip()]
            cfg.fixed_horizons = tuple(_convert(int, h, section, key)
                                       for h in raw)
        else:
            raise ConfigError(f"unknown config key {key!r}")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text of the fully resolved config (reproducible)."""
    out = io.StringIO()
    d = asdict(cfg)
    synth = d.pop("synth")
    out.write("[run]\n")
    for key in sorted(d):
        value = d[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        out.write(f"{key} = {value}\n")
    out.write("\n[synth]\n")
    counts = synth.pop("counts")
    shifts = synth.pop("shifts")
    for key in sorted(synth):
        out.write(f"{key} = {synth[key]}\n")
    for icu in ICU_NAMES:
        if icu in counts:
            out.write(f"counts.{icu} = {counts[icu]}\n")
    for icu in ICU_NAMES:
        if icu in shifts:
            out.write(f"shift.{icu} = {shifts[icu]}\n")
    return out.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def persist_config(cfg: ExperimentConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved_config.ini")
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
    return path
