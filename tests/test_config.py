import dataclasses

import pytest
from conftest import config_text, other_value

from fedhorizon.config import (
    RUN_KEYS, SYNTH_KEYS, ConfigError, ExperimentConfig, config_hash,
    load_config_file, persist_config, resolve_config, serialize_config,
)
from fedhorizon.synthgen import SynthConfig


class TestDefaults:
    def test_defaults_valid(self):
        resolve_config().validate()

    def test_paper_matched_defaults(self):
        cfg = resolve_config()
        assert cfg.rounds == 50
        assert cfg.local_epochs == 3
        assert cfg.folds == 5
        assert cfg.lstm_units == 16
        assert cfg.lstm_layers == 3
        assert cfg.dropout == 0.2
        assert cfg.settings == ("local", "federated", "central")

    def test_synth_seed_follows_master_seed(self):
        cfg = resolve_config(overrides={"seed": 99})
        assert cfg.synth.seed == 99


class TestValidation:
    def test_unknown_setting(self):
        with pytest.raises(ConfigError):
            resolve_config(overrides={"settings": "local,quantum"})

    def test_bad_folds(self):
        with pytest.raises(ConfigError):
            resolve_config(overrides={"folds": 1})

    def test_bad_fixed_horizon(self):
        with pytest.raises(ConfigError):
            resolve_config(overrides={"fixed_horizons": "25,26"})

    def test_bad_pos_weight(self):
        with pytest.raises(ConfigError):
            resolve_config(overrides={"pos_weight": "heavy"})
        resolve_config(overrides={"pos_weight": "auto"}).validate()

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            resolve_config(overrides={"optimizer": "sgd"})

    def test_pos_weight_value(self):
        cfg = resolve_config(overrides={"pos_weight": "auto"})
        assert cfg.client_pos_weight is None
        fixed = resolve_config(overrides={"pos_weight": "2.5"})
        assert fixed.client_pos_weight == 2.5


class TestRejectedValues:
    """Values that cannot train fail in resolve_config, naming the key,
    not after the dataset is loaded."""

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 1), ("batch_size", 0), ("patience", 0),
        ("val_fraction", 0.0), ("val_fraction", 1.0),
        ("test_fraction", 0.0), ("test_fraction", 1.5),
        ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("min_delta", -1e-4), ("dropout", 1.5), ("dropout", -0.1),
        ("lstm_units", 0), ("lstm_layers", 0), ("dense_units", 0),
    ])
    def test_named(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} "):
            resolve_config(overrides={key: value})


def _read_back(target, key, value, kind):
    """``target.key`` is ``value`` (config text), of annotation ``kind``;
    a tuple's items are of its default's item type."""
    got = getattr(target, key)
    assert type(got).__name__ == kind
    if kind == "tuple":
        default = getattr(ExperimentConfig, key)
        assert {type(v) for v in got} == {type(default[0])}
    assert config_text(got) == value


class TestEveryKey:
    """Every dataclass field is a key, read with its field's type from a
    config file and from an override."""

    @pytest.mark.parametrize("key", sorted(RUN_KEYS))
    def test_run_key(self, tmp_path, key):
        value = other_value(ExperimentConfig(), key)
        path = tmp_path / "cfg.ini"
        path.write_text(f"[run]\n{key} = {value}\n")
        for cfg in (resolve_config(str(path)),
                    resolve_config(overrides={key: value})):
            _read_back(cfg, key, value, RUN_KEYS[key])

    @pytest.mark.parametrize("key", sorted(SYNTH_KEYS))
    def test_synth_key(self, tmp_path, key):
        value = other_value(SynthConfig(), key)
        path = tmp_path / "cfg.ini"
        path.write_text(f"[synth]\n{key} = {value}\n")
        for cfg in (resolve_config(str(path)),
                    resolve_config(overrides={key: value})):
            _read_back(cfg.synth, key, value, SYNTH_KEYS[key])

    def test_tables_are_the_fields(self):
        run = {f.name for f in dataclasses.fields(ExperimentConfig)}
        synth = {f.name for f in dataclasses.fields(SynthConfig)}
        assert set(RUN_KEYS) == run - {"synth"}
        assert set(SYNTH_KEYS) == synth - {"counts", "shifts"}


class TestFileAndOverrides:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return str(path)

    def test_file_values_applied(self, tmp_path):
        path = self.write(tmp_path, "[train]\nrounds = 7\nbatch_size = 16\n"
                                    "[run]\nseed = 5\n")
        cfg = resolve_config(path)
        assert (cfg.rounds, cfg.batch_size, cfg.seed) == (7, 16, 5)

    def test_cli_beats_file(self, tmp_path):
        path = self.write(tmp_path, "[train]\nrounds = 7\n")
        cfg = resolve_config(path, {"rounds": 9})
        assert cfg.rounds == 9

    def test_none_overrides_ignored(self, tmp_path):
        path = self.write(tmp_path, "[train]\nrounds = 7\n")
        cfg = resolve_config(path, {"rounds": None, "seed": None})
        assert cfg.rounds == 7
        assert cfg.seed == 42

    def test_synth_section(self, tmp_path):
        path = self.write(tmp_path, "[synth]\nprevalence = 0.4\n"
                                    "counts.MICU = 10\nshift.CCU = 0.7\n")
        cfg = resolve_config(path)
        assert cfg.synth.prevalence == 0.4
        assert cfg.synth.counts["MICU"] == 10
        assert cfg.synth.shifts["CCU"] == 0.7
        assert cfg.synth.counts["TSICU"] == 606  # untouched default

    def test_synth_cli_flags(self):
        cfg = resolve_config(overrides={"prevalence": 0.25,
                                        "missingness": 0.05})
        assert cfg.synth.prevalence == 0.25
        assert cfg.synth.missingness == 0.05

    def test_unknown_section(self, tmp_path):
        path = self.write(tmp_path, "[modeling]\nlr = 0.1\n")
        with pytest.raises(ConfigError):
            resolve_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            resolve_config("/nonexistent/cfg.ini")

    def test_case_sensitive_icu_keys(self, tmp_path):
        path = self.write(tmp_path, "[synth]\ncounts.NSICU = 3\n")
        cfg = resolve_config(path)
        assert cfg.synth.counts["NSICU"] == 3

    def test_settings_comma_list(self):
        cfg = resolve_config(overrides={"settings": "federated , local"})
        assert cfg.settings == ("federated", "local")

    def test_bool_parsing(self):
        assert resolve_config(overrides={"time_channel": "off"}).time_channel \
            is False
        assert resolve_config(overrides={"time_channel": "yes"}).time_channel \
            is True
        with pytest.raises(ConfigError):
            resolve_config(overrides={"time_channel": "maybe"})


class TestBadValuesNamed:
    """A value of the wrong type fails with a ConfigError naming where it
    came from, the key and the value."""

    write = TestFileAndOverrides.write

    @pytest.mark.parametrize("text, message", [
        ("[train]\nrounds = abc\n",
         "[train] rounds = 'abc': expected an integer"),
        ("[synth]\ncounts.MICU = x\n",
         "[synth] counts.MICU = 'x': expected an integer"),
        ("[synth]\nshift.CCU = far\n",
         "[synth] shift.CCU = 'far': expected a number"),
        ("[synth]\nprevalence = half\n",
         "[synth] prevalence = 'half': expected a number"),
        ("[run]\nlearning_rate = fast\n",
         "[run] learning_rate = 'fast': expected a number"),
        ("[data]\ntime_channel = maybe\n",
         "[data] time_channel = 'maybe': expected a boolean"),
        ("[run]\nfixed_horizons = 25,x\n",
         "[run] fixed_horizons = 'x': expected an integer"),
    ])
    def test_file_value(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            resolve_config(path)
        assert str(info.value) == message

    def test_override_value(self):
        with pytest.raises(ConfigError,
                           match="override folds = 'five': expected an "
                                 "integer"):
            resolve_config(overrides={"folds": "five"})
        with pytest.raises(ConfigError,
                           match="override missingness = 'some'"):
            resolve_config(overrides={"missingness": "some"})

    def test_dtype_limited_to_float64_and_float32(self, tmp_path):
        path = self.write(tmp_path, "[run]\ndtype = float16x\n")
        with pytest.raises(ConfigError, match="dtype .*'float16x'"):
            resolve_config(path)
        for dtype in ("float64", "float32"):
            assert resolve_config(overrides={"dtype": dtype}).dtype == dtype


class TestSerialization:
    def test_hash_stable(self):
        assert config_hash(resolve_config()) == config_hash(resolve_config())
        assert len(config_hash(resolve_config())) == 16

    def test_hash_ignores_paths(self):
        a = resolve_config(overrides={"out_dir": "a", "data_dir": "x"})
        b = resolve_config(overrides={"out_dir": "b", "data_dir": "y"})
        assert serialize_config(a) != serialize_config(b)
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_values(self):
        a = resolve_config()
        b = resolve_config(overrides={"rounds": 49})
        assert config_hash(a) != config_hash(b)

    def test_serialized_text_round_trips(self, tmp_path):
        cfg = resolve_config(overrides={"rounds": 11, "prevalence": 0.2})
        path = persist_config(cfg, str(tmp_path))
        again = resolve_config(path)
        assert serialize_config(again) == serialize_config(cfg)
        assert config_hash(again) == config_hash(cfg)

    def test_load_config_file_shape(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[train]\nrounds = 3\n")
        assert load_config_file(str(path)) == {"train": {"rounds": "3"}}
