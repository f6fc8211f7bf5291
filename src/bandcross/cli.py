"""Command line entry point ``bcl``.

    bcl run <study> [--config f.json] [--out dir]

overlays the JSON object in f.json on ``default_config(study)``, runs the
study, writes ``<study>_summary.json`` and ``<study>_rows.csv`` to the
output directory (the config's ``out_dir`` unless --out is given), prints
one line per gate, and exits 0 only when every gate passed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness

STUDIES = {
    "breakdown": "run_breakdown_study",
    "crossing": "run_crossing_study",
    "inner": "run_inner_window",
    "isolated": "run_isolated_band",
}


def load_config(study: str, path: str | None = None) -> harness.RunConfig:
    """The study's default config with the JSON object at path laid over it.

    Top-level keys replace the default's; solver keys replace one by one,
    the way RunConfig lays them over its own solver defaults.
    """
    data = harness.default_config(study).resolved()
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"{path}: the config must be a JSON object")
        if user.get("study", study) != study:
            raise ValueError(f"{path} is a config for study "
                             f"{user['study']!r}, not {study!r}")
        solver = user.pop("solver", {})
        if not isinstance(solver, dict):
            raise ValueError(f"{path}: 'solver' must be a JSON object")
        data.update(user, solver={**data["solver"], **solver})
    return harness.RunConfig.from_dict(data)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bcl",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one study and write its report")
    run.add_argument("study", choices=sorted(STUDIES))
    run.add_argument("--config", help="JSON object laid over the defaults")
    run.add_argument("--out", help="output directory")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.study, args.config)
    except (OSError, TypeError, ValueError) as exc:
        ap.error(str(exc))
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    report = getattr(harness, STUDIES[args.study])(cfg)
    report.write(cfg.out_dir)
    for gate in report.gates:
        status = "pass" if gate.passed else "FAIL"
        print(f"{status} {gate.name} = {gate.value:.6g} ({gate.requirement})")
    print(f"{args.study}: {'passed' if report.passed else 'FAILED'}; "
          f"report in {cfg.out_dir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
