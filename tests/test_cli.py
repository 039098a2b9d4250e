import json
import os

import pytest
from conftest import config_text, other_value

from fedhorizon.cli import _resolve, build_parser, main
from fedhorizon.config import RUN_KEYS, SYNTH_KEYS, ExperimentConfig
from fedhorizon.synthgen import SynthConfig

TINY_CFG = """\
[run]
seed = 11
folds = 2
rounds = 2
local_epochs = 1
batch_size = 32
lstm_units = 3
lstm_layers = 1
dense_units = 3
settings = local,federated

[synth]
counts.MICU = 10
counts.MICU/SICU = 10
counts.SICU = 10
counts.TSICU = 10
counts.CCU = 10
counts.CVICU = 10
counts.NSICU = 10
"""


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture()
def tiny_dataset(tmp_path, tiny_cfg_path):
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--config", tiny_cfg_path,
                 "--data-dir", data_dir]) == 0
    return data_dir


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (["synth"], ["run"], ["compare-fixed"],
                     ["ingest", "a", "b", "c"], ["report", "m.json"]):
            assert parser.parse_args(argv).func is not None

    def test_seed_parsed_as_int(self):
        args = build_parser().parse_args(["run", "--seed", "7"])
        assert args.seed == 7

    def test_help_names_every_key(self):
        text = " ".join(build_parser().format_help().split())
        for key in list(RUN_KEYS) + list(SYNTH_KEYS):
            assert f"{key} (" in text, key

    @pytest.mark.parametrize("command", ["synth", "run", "compare-fixed"])
    def test_every_flag_reaches_the_config(self, command):
        """Every flag's ``dest`` is a key, and ``_resolve`` passes it on."""
        args = build_parser().parse_args([command])
        keys = set(vars(args)) - {"command", "func", "config"}
        assert keys <= set(RUN_KEYS) | set(SYNTH_KEYS)
        for key in keys:
            defaults = ExperimentConfig() if key in RUN_KEYS else SynthConfig()
            setattr(args, key, other_value(defaults, key))
        cfg = _resolve(args)
        for key in keys:
            target = cfg if key in RUN_KEYS else cfg.synth
            assert config_text(getattr(target, key)) == getattr(args, key)


class TestSynth:
    def test_writes_three_csvs(self, tiny_dataset):
        for name in ("static.csv", "timeseries.csv", "labels.csv"):
            assert os.path.exists(os.path.join(tiny_dataset, name))

    def test_summary_printed(self, tmp_path, tiny_cfg_path, capsys):
        main(["synth", "--config", tiny_cfg_path,
              "--data-dir", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert "MICU" in out and "total" in out

    def test_deterministic_given_seed(self, tmp_path, tiny_cfg_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["synth", "--config", tiny_cfg_path, "--data-dir", a])
        main(["synth", "--config", tiny_cfg_path, "--data-dir", b])
        for name in ("static.csv", "timeseries.csv", "labels.csv"):
            with open(os.path.join(a, name)) as fa, \
                    open(os.path.join(b, name)) as fb:
                assert fa.read() == fb.read()

    def test_bad_prevalence_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--prevalence", "2.0",
                   "--data-dir", str(tmp_path / "d")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestIngest:
    def test_valid_dataset(self, tiny_dataset, capsys):
        rc = main(["ingest",
                   os.path.join(tiny_dataset, "static.csv"),
                   os.path.join(tiny_dataset, "timeseries.csv"),
                   os.path.join(tiny_dataset, "labels.csv")])
        assert rc == 0
        assert "dataset valid" in capsys.readouterr().out

    def test_broken_dataset_exits_2(self, tiny_dataset, tmp_path, capsys):
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("stay_id,sepsis_onset_hour\nnot_a_stay,12.0\n")
        rc = main(["ingest",
                   os.path.join(tiny_dataset, "static.csv"),
                   os.path.join(tiny_dataset, "timeseries.csv"),
                   str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        rc = main(["ingest", "/no/a.csv", "/no/b.csv", "/no/c.csv"])
        assert rc == 2


class TestRunAndReport:
    def test_end_to_end(self, tmp_path, tiny_cfg_path, tiny_dataset, capsys):
        out_dir = str(tmp_path / "out")
        rc = main(["run", "--config", tiny_cfg_path,
                   "--data-dir", tiny_dataset, "--out", out_dir])
        assert rc == 0
        for name in ("metrics.json", "metrics.csv", "curves.csv",
                     "fir_eda.csv", "rounds.jsonl", "resolved_config.ini"):
            assert os.path.exists(os.path.join(out_dir, name)), name
        with open(os.path.join(out_dir, "metrics.json")) as fh:
            doc = json.load(fh)
        assert doc["n_folds"] == 2
        settings = {row["setting"] for row in doc["rows"]}
        assert settings == {"local", "federated"}
        assert any(row["icu"] == "overall" for row in doc["rows"])

        capsys.readouterr()
        rc = main(["report", os.path.join(out_dir, "metrics.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F1" in out and "federated" in out

    def test_hash_ignores_out_dir(self, tmp_path, tiny_cfg_path,
                                  tiny_dataset):
        hashes = set()
        for name in ("out_a", "out_b"):
            out_dir = str(tmp_path / name)
            assert main(["run", "--config", tiny_cfg_path, "--settings",
                         "local", "--data-dir", tiny_dataset,
                         "--out", out_dir]) == 0
            with open(os.path.join(out_dir, "metrics.json")) as fh:
                hashes.add(json.load(fh)["config_hash"])
        assert len(hashes) == 1

    def test_compare_fixed_end_to_end(self, tmp_path, tiny_cfg_path,
                                      tiny_dataset, capsys):
        out_dir = str(tmp_path / "out")
        capsys.readouterr()
        rc = main(["compare-fixed", "--config", tiny_cfg_path,
                   "--data-dir", tiny_dataset, "--out", out_dir,
                   "--settings", "local", "--fixed-horizons", "25"])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "compare_fixed.csv"))
        with open(os.path.join(out_dir, "resolved_config.ini")) as fh:
            assert "settings = local,federated\n" in fh.read()
        assert "fixed-vs-variable comparison complete" in capsys.readouterr().out

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--data-dir", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
