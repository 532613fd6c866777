"""Command-line front end binding config files to campaign operations.

Exit codes: 0 success, 1 search failure (SearchFailed), 2 refused input
(ConfigError), an --out path that cannot be written, or a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import campaign
from .errors import ConfigError, SearchFailed
from .scenarios import SCENARIO_PRESETS

EXIT_OK = 0
EXIT_SEARCH_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _add_common(parser: argparse.ArgumentParser, command: str):
    """--config, --out and the overrides of the config values ``command``
    reads; an override left unset is absent from the parsed arguments."""
    parser.add_argument("--config", required=True, help="campaign config JSON file")
    parser.add_argument("--out", default=None,
                        help="output directory for summary.json, and results.jsonl and "
                             "report.csv where the campaign keeps its trials")
    if command != "bod":  # the detector sweep draws nothing
        parser.add_argument("--seed", dest="master_seed", type=int, default=argparse.SUPPRESS,
                            help="override the config's master seed")
    if command in ("wide-vs-narrow", "countermeasure"):  # no other reads cfg.trials
        parser.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                            help="override the config's per-evaluation trial count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glitchsim",
        description="Multi-voltage-fault simulator and parameter-search flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("sweep", "single-fault sweep locating every target's absolute parameters"),
        ("exhaustive", "conventional multi-fault grid search baseline"),
        ("flow", "full search flow: sweep, translate, fuzzyfy, integrate, evaluate"),
        ("compare", "trial-count comparison of exhaustive baseline vs the flow"),
        ("wide-vs-narrow", "outcome distributions of one wide fault vs two narrow ones"),
        ("bod", "brown-out-detector phase sweep for a wide fault and its split"),
    ):
        _add_common(sub.add_parser(name, help=help_text), name)

    cm = sub.add_parser("countermeasure",
                        help="success-rate degradation under random delays")
    _add_common(cm, "countermeasure")
    cm.add_argument("--max-delay", type=int, default=9,
                    help="maximum random stall in DUT cycles (default 9)")

    report = sub.add_parser("report", help="convert results.jsonl to report.csv")
    report.add_argument("--results", required=True, help="results.jsonl to convert")
    report.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("scenarios", help="list builtin scenario presets")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)

    try:
        if args.command == "scenarios":
            for name in SCENARIO_PRESETS:
                print(name)
            return EXIT_OK

        if args.command == "report":
            rows = campaign.results_to_report(campaign.read_results(args.results),
                                              args.out)
            print(f"wrote {rows} rows to {args.out}")
            return EXIT_OK

        overrides = {k: v for k, v in vars(args).items() if k in ("master_seed", "trials")}
        cfg = replace(campaign.load_config(args.config), **overrides)
        out = args.out

        if args.command == "sweep":
            summary = campaign.run_sweep_only(cfg, out)
            print(f"sweep complete: {summary['total_trials']} trials, "
                  f"targets: {sorted(summary['absolute_params'])}")
        elif args.command == "exhaustive":
            summary = campaign.run_exhaustive(cfg, out)
            print(f"exhaustive search: {summary['total_trials']} trials, "
                  f"{len(summary['combos'])} successful combo(s)")
        elif args.command == "flow":
            summary = campaign.run_attack_flow(cfg, out)
            best = summary["best"]
            print(f"flow complete: {summary['total_trials']} trials, "
                  f"best combo {best['specs']} "
                  f"success rate {best['success_rate']:.4g}")
        elif args.command == "compare":
            summary = campaign.run_comparison(cfg, out)
            ex, fl = summary["exhaustive"], summary["flow"]
            ratio = summary["ratio"]
            ratio_text = f"{ratio:.1f}" if ratio is not None else "n/a"
            print(f"exhaustive: {ex['trials_used']} trials "
                  f"({'found' if ex['found'] else 'not found'}); "
                  f"flow: {fl['trials_used']} trials "
                  f"({'found' if fl['found'] else 'not found'}); "
                  f"ratio: {ratio_text}")
        elif args.command == "wide-vs-narrow":
            summary = campaign.run_wide_vs_narrow(cfg, out)
            for row in ("wide", "narrow"):
                cells = summary["distributions"][row]
                rendered = "  ".join(f"{k}={cells[k]:.3f}" for k in summary["columns"])
                print(f"{row:>6}: {rendered}")
        elif args.command == "countermeasure":
            summary = campaign.run_countermeasure_eval(cfg, args.max_delay, out)
            factor = summary["degradation_factor"]
            factor_text = f"{factor:.2f}" if factor is not None else "inf"
            print(f"baseline rate {summary['baseline_rate']:.4g}, "
                  f"delayed rate {summary['delayed_rate']:.4g}, "
                  f"degradation factor {factor_text}")
        elif args.command == "bod":
            summary = campaign.run_bod_eval(cfg, out)
            print(f"wide detection rate {summary['wide_detection_rate']:.3f}, "
                  f"split detection rate {summary['split_detection_rate']:.3f}, "
                  f"split-evading phases: {summary['split_evading_phases']}")
        return EXIT_OK

    except SearchFailed as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return EXIT_SEARCH_FAILED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        # OSError: an --out path that cannot be written, e.g. a missing
        # parent directory or an existing file where a directory goes.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
