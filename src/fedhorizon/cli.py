"""Command line interface.

Subcommands:
  synth          generate a synthetic cohort and export it as CSVs
  ingest         validate an ingestable CSV dataset and print a summary
  run            train the requested settings over all folds, emit reports
  compare-fixed  fixed- vs variable-prediction-window comparison
  report         pretty-print tables from an existing metrics.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import experiment, synthgen
from .cohort import ingest_csv
from .config import ConfigError, config_hash, persist_config, resolve_config
from .schema import ICU_NAMES


def _add_common(parser):
    parser.add_argument("--config", help="config file (key = value with "
                                         "[synth]/[data]/[train]/[run] sections)")
    parser.add_argument("--seed", type=int, help="master seed (default 42)")
    parser.add_argument("--out", dest="out_dir", help="output directory")


def _resolve(args, extra_keys=()):
    overrides = {"seed": args.seed, "out_dir": args.out_dir}
    for key in extra_keys:
        overrides[key] = getattr(args, key, None)
    return resolve_config(args.config, overrides)


def _print_partition_summary(partition):
    total = 0
    for icu in ICU_NAMES:
        stays = partition.stays_by_icu.get(icu, [])
        if not stays:
            continue
        n_pos = sum(1 for s in stays if s.septic)
        total += len(stays)
        print(f"  {icu:10s} patients={len(stays):5d} "
              f"prevalence={n_pos / len(stays):.3f}")
    print(f"  {'total':10s} patients={total:5d}")


def cmd_synth(args) -> int:
    cfg = _resolve(args, ("prevalence", "missingness", "data_dir"))
    partition = synthgen.generate_cohort(cfg.synth)
    out = args.data_dir or cfg.data_dir
    paths = synthgen.export_csv(partition, out)
    print(f"synthetic cohort written to {out}")
    _print_partition_summary(partition)
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def cmd_ingest(args) -> int:
    partition = ingest_csv(args.static, args.timeseries, args.labels)
    print("dataset valid")
    _print_partition_summary(partition)
    return 0


def _load_partition(cfg):
    import os

    static = os.path.join(cfg.data_dir, "static.csv")
    if not os.path.exists(static):
        raise FileNotFoundError(
            f"dataset not found in {cfg.data_dir!r}; run `fedhorizon synth` "
            f"or point --data-dir at exported CSVs")
    return ingest_csv(static,
                      os.path.join(cfg.data_dir, "timeseries.csv"),
                      os.path.join(cfg.data_dir, "labels.csv"))


def cmd_run(args) -> int:
    cfg = _resolve(args, ("settings", "rounds", "folds", "batch_size",
                          "data_dir", "pos_weight",
                          "fixed_horizons", "time_channel"))
    partition = _load_partition(cfg)
    result = experiment.run_all_folds(partition, cfg, include_fixed=False)
    paths = experiment.emit_reports(result, cfg.out_dir)
    print(f"run complete (config hash {config_hash(cfg)})")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def cmd_compare_fixed(args) -> int:
    cfg = _resolve(args, ("settings", "rounds", "folds", "batch_size",
                          "data_dir", "pos_weight",
                          "fixed_horizons", "time_channel"))
    if "federated" not in cfg.settings:
        cfg.settings = tuple(cfg.settings) + ("federated",)
    partition = _load_partition(cfg)
    result = experiment.run_all_folds(partition, cfg, include_fixed=True)
    paths = experiment.emit_reports(result, cfg.out_dir)
    print(f"fixed-vs-variable comparison complete (config hash {config_hash(cfg)})")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def _fmt(value):
    if value is None:
        return "   -  "
    if isinstance(value, str):
        return f"{value:>6s}"
    if math.isinf(value):
        return "   inf"
    return f"{value:6.4f}"


def cmd_report(args) -> int:
    with open(args.metrics) as fh:
        doc = json.load(fh)
    agg = doc["aggregate"]["mean"]
    cells = sorted(agg)
    settings = sorted({c.split("|")[0] for c in cells})
    icus = [icu for icu in list(ICU_NAMES) + ["overall"]
            if any(c == f"{s}|{icu}" for s in settings for c in cells)]
    print(f"config hash {doc['config_hash']}  seed {doc['seed']}  "
          f"{doc['n_folds']} folds")
    for metric in ("f1", "auc", "fir", "eda"):
        header = f"{metric.upper():8s}" + "".join(f"{icu:>11s}" for icu in icus)
        lines = []
        for setting in settings:
            values = [agg.get(f"{setting}|{icu}", {}).get(metric) for icu in icus]
            if all(v is None for v in values):
                continue
            lines.append(f"{setting:8s}" + "".join(
                f"{_fmt(v):>11s}" for v in values))
        if lines:
            print(header)
            print("\n".join(lines))
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedhorizon",
        description="Federated early-sepsis-prediction simulator with "
                    "variable prediction horizons.",
        epilog="Config keys ([run] section unless noted): data_dir, settings "
               "(comma list of local,federated,central), rounds, local_epochs, "
               "folds, batch_size, learning_rate, pos_weight (number|auto), "
               "threshold, time_channel, fixed_horizons, seed, out_dir, "
               "patience, min_delta, val_fraction, test_fraction, "
               "lstm_units, lstm_layers, dense_units, dropout, "
               "dtype. [synth] keys: counts.<ICU>, shift.<ICU>, prevalence, "
               "missingness, signal_amp, signal_lead, signal_base, onset_bias, amp_jitter, slow_frac, slow_level, sign_flip_p, noise_scale, ar_rho, "
               "seed. Folds run in order; the clients of a FedAvg round train "
               "in worker processes, one per usable CPU, as do the local and "
               "central trainings of a fold.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    _add_common(p)
    p.add_argument("--prevalence", type=float, help="sepsis prevalence (0,1)")
    p.add_argument("--missingness", type=float, help="cell missingness [0,1)")
    p.add_argument("--data-dir", dest="data_dir", help="dataset output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "ingest", help="validate a CSV dataset",
        description="Read static.csv, timeseries.csv and labels.csv, check "
                    "them and print a per-ICU summary. The time series is "
                    "read as whole NumPy columns and aggregated onto the "
                    "30-hour grids in one pass (latest measurement in an "
                    "hour wins, file order breaks ties).",
        epilog="CSV dialect: comma-separated, header on the first line, one "
               "record per line; a field may be double-quoted to hold "
               "commas (a doubled quote inside stands for one); blank lines "
               "are skipped; '#' is ordinary text. Numbers must be finite: "
               "a nan or inf hour_offset or value, or los_hours, age, "
               "height or weight, is rejected, as are a wrong field count, "
               "an unknown stay or feature and a negative hour_offset. "
               "Every error names the file and physical line (exit 2).")
    p.add_argument("static", help="static CSV path")
    p.add_argument("timeseries", help="timeseries CSV path")
    p.add_argument("labels", help="labels CSV path")
    p.set_defaults(func=cmd_ingest)

    for name, func in (("run", cmd_run), ("compare-fixed", cmd_compare_fixed)):
        p = sub.add_parser(name, help=f"{name} experiments")
        _add_common(p)
        p.add_argument("--data-dir", dest="data_dir", help="dataset directory")
        p.add_argument("--settings", help="comma list: local,federated,central")
        p.add_argument("--rounds", type=int, help="max FedAvg rounds (default 50)")
        p.add_argument("--folds", type=int, help="cross-validation folds")
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--pos-weight", dest="pos_weight",
                       help="positive class weight, a number or 'auto'")
        p.add_argument("--fixed-horizons", dest="fixed_horizons",
                       help="comma list of horizons for the fixed suite")
        p.add_argument("--time-channel", dest="time_channel",
                       help="append the window-start time channel (true/false)")
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="print tables from a metrics.json")
    p.add_argument("metrics", help="path to metrics.json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
