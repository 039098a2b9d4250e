"""Experiment configuration: defaults, config-file parsing, CLI overrides
and deterministic hashing of the fully resolved configuration.

Config files are flat ``key = value`` text with ``[section]`` headers.
Recognized sections: [synth], [data], [train], [run].

The keys are the dataclass fields: ``RUN_KEYS`` from ``ExperimentConfig``
([data], [train], [run] or an override) and ``SYNTH_KEYS`` from
``SynthConfig``'s non-dict fields ([synth], or an override that is no run
key), plus ``counts.<ICU>`` and ``shift.<ICU>`` in [synth]. A value parses
as its field's annotation; a tuple is a comma list typed like its default's
items. ``validate`` names the key of any value that cannot train (e.g. a
``batch_size`` below 2 or a ``dropout`` of 1). ``config_hash`` ignores
``data_dir`` and ``out_dir``.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import asdict, dataclass, field, fields, replace

from .nn import ModelConfig, ModelError
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
        for key, low in (("rounds", 0), ("local_epochs", 1), ("folds", 2),
                         ("batch_size", 2), ("patience", 1), ("min_delta", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}")
        for key in ("threshold", "val_fraction", "test_fraction"):
            if not (0.0 < getattr(self, key) < 1.0):
                raise ConfigError(f"{key} must lie in (0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        for h in self.fixed_horizons:
            if not (1 <= h <= 25):
                raise ConfigError(f"fixed horizon {h} outside [1, 25]")
        try:
            self.model_config(1)
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
        if self.pos_weight != "auto":
            try:
                if float(self.pos_weight) <= 0:
                    raise ValueError
            except ValueError:
                raise ConfigError(
                    f"pos_weight must be 'auto' or a positive number, "
                    f"got {self.pos_weight!r}") from None
        self.synth.validate()

    def model_config(self, n_features: int) -> ModelConfig:
        """The model this config trains on windows of ``n_features``
        channels (the time channel included)."""
        return ModelConfig(
            n_features=n_features, lstm_units=self.lstm_units,
            lstm_layers=self.lstm_layers, dense_units=self.dense_units,
            dropout=self.dropout, seed=self.seed, dtype=self.dtype)

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


# annotation: (parser, what a ConfigError says it expected)
_PARSE = {"int": (int, "an integer"), "float": (float, "a number"),
          "bool": (_parse_bool, "a boolean"), "str": (str, None)}

# {key: annotation}, read from the dataclasses (annotations are strings here)
RUN_KEYS = {f.name: f.type for f in fields(ExperimentConfig)
            if f.name != "synth"}
SYNTH_KEYS = {f.name: f.type for f in fields(SynthConfig) if f.type != "dict"}


def _value(kind: str, raw, section: str | None, key: str):
    """``raw``, config text or an already typed override, as a value of
    annotation ``kind``, or a ConfigError naming where the value came from
    (a ``[section]`` of the config file, or an override), the key and the
    value."""
    if kind == "tuple":
        item = type(getattr(ExperimentConfig, key)[0]).__name__
        if isinstance(raw, str):
            # other items stay as written, so an error quotes them as given
            raw = [s.strip() if item == "str" else s
                   for s in raw.split(",") if s.strip()]
        return tuple(_value(item, s, section, key) for s in raw)
    if kind == "bool" and isinstance(raw, bool):
        return raw
    parse, expected = _PARSE[kind]
    try:
        return parse(raw)
    except (TypeError, ValueError):
        where = f"[{section}]" if section else "override"
        raise ConfigError(f"{where} {key} = {raw!r}: expected "
                          f"{expected}") from None


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
    """Defaults, then config file values, then CLI overrides (a None
    override is ignored)."""
    cfg = ExperimentConfig()
    synth = {"counts": dict(DEFAULT_COUNTS), "shifts": dict(DEFAULT_SHIFTS)}
    pairs = []
    if file_path:
        for section, values in load_config_file(file_path).items():
            if section not in ("synth", "data", "train", "run"):
                raise ConfigError(f"unknown config section [{section}]")
            pairs += [(section, key, raw) for key, raw in values.items()]
    pairs += [(None, key, raw) for key, raw in (overrides or {}).items()
              if raw is not None]
    for section, key, raw in pairs:
        if section == "synth" and key.startswith(("counts.", "shift.")):
            # one entry of a dict field, typed like the field's defaults
            prefix, icu = key.split(".", 1)
            entries = synth["counts" if prefix == "counts" else "shifts"]
            kind = type(next(iter(entries.values()))).__name__
            entries[icu] = _value(kind, raw, section, key)
        elif key in RUN_KEYS and section != "synth":
            setattr(cfg, key, _value(RUN_KEYS[key], raw, section, key))
        elif key in SYNTH_KEYS and section in ("synth", None):
            synth[key] = _value(SYNTH_KEYS[key], raw, section, key)
        elif section == "synth":
            raise ConfigError(f"unknown [synth] key {key!r}")
        else:
            raise ConfigError(f"unknown config key {key!r}")

    synth.setdefault("seed", cfg.seed)
    cfg.synth = SynthConfig(**synth)
    cfg.validate()
    return cfg


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
    """Hash of the serialized config with ``data_dir`` and ``out_dir``
    blanked: where the files live is not part of the experiment."""
    text = serialize_config(replace(cfg, data_dir="", out_dir=""))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def persist_config(cfg: ExperimentConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved_config.ini")
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
    return path
