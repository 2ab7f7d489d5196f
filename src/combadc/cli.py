"""Command-line front end.

Four subcommands cover the workflows the library automates:

    validate    parse a scenario file and report the first problem found
    sweep-sine  single-tone frequency sweep -> sweep.csv
    run-scm     channelized PAM4 burst -> scm_snr.csv + per-channel spectra
    spectrum    one sub-band capture dump -> spectrum_chN.csv

Every run writes manifest.txt next to its artifacts. The manifest embeds
the fully resolved scenario (seed override included), so any run can be
reproduced from its manifest alone.

Exit codes: 0 success, 1 bad configuration or usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import CombAdcError, ConfigError
from .runner import RunManifest, run_scm, run_spectrum, run_sweep
from .scenario import ScenarioConfig, load_config


class _Parser(argparse.ArgumentParser):
    """argparse reports usage mistakes with exit code 2; this tool reserves
    2 for runtime failures, so bad flags exit 1 like any other config error.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is None:
        text = ""
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    cfg = load_config(text)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(
            cfg, run=dataclasses.replace(cfg.run, master_seed=args.seed)
        )
    return cfg


def _finish(manifest: RunManifest, out_dir: str) -> int:
    for name in sorted(manifest.artifacts):
        print(f"wrote {out_dir}/{name}")
    print(f"wrote {out_dir}/manifest.txt")
    failed = [t for t in manifest.tasks if t.status != "ok"]
    if failed:
        print(
            f"{len(failed)} of {len(manifest.tasks)} tasks failed;"
            " see manifest.txt",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="combadc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser, jobs: bool):
        p.add_argument(
            "--config",
            metavar="PATH",
            help="scenario file; built-in defaults apply when omitted",
        )
        p.add_argument(
            "--out",
            metavar="DIR",
            default=".",
            help="artifact directory (default: current directory)",
        )
        p.add_argument(
            "--seed", metavar="N", type=int, help="override run.master_seed"
        )
        if jobs:
            p.add_argument(
                "--jobs",
                metavar="N",
                type=int,
                default=1,
                help="worker processes (default 1; at most one per task and "
                "max(2, CPUs); results identical)",
            )

    p_val = sub.add_parser("validate", help="parse and check a scenario file")
    p_val.add_argument("--config", metavar="PATH", help="scenario file to check")

    p_sweep = sub.add_parser("sweep-sine", help="single-tone sweep over the band")
    add_common(p_sweep, jobs=True)

    p_scm = sub.add_parser("run-scm", help="demodulate the channelized PAM4 burst")
    add_common(p_scm, jobs=True)
    p_scm.add_argument(
        "--channel",
        metavar="N",
        type=int,
        help="demodulate only this channel (all active channels still transmit)",
    )

    p_spec = sub.add_parser("spectrum", help="dump one sub-band capture spectrum")
    add_common(p_spec, jobs=False)
    p_spec.add_argument(
        "--channel",
        metavar="N",
        type=int,
        default=1,
        help="sub-band to capture (default: 1)",
    )

    args = parser.parse_args(argv)
    try:
        cfg = _load_scenario(args)
        if args.command == "validate":
            sweep = cfg.sweep
            print(
                f"ok: {cfg.combs.n_tones} tone pairs,"
                f" {len(cfg.scm.active_set())} of {cfg.scm.n_channels}"
                f" channels active,"
                f" sweep {sweep.start / 1e9:.2f}-{sweep.stop / 1e9:.2f} GHz"
                f" in {sweep.n_points} points"
            )
            return 0
        if args.command == "sweep-sine":
            manifest = run_sweep(cfg, args.out, jobs=args.jobs)
        elif args.command == "run-scm":
            picked = [args.channel] if args.channel is not None else None
            manifest = run_scm(cfg, args.out, jobs=args.jobs, channels=picked)
        else:
            manifest = run_spectrum(cfg, args.out, args.channel)
        return _finish(manifest, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CombAdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep the exit-code contract for anything else
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
