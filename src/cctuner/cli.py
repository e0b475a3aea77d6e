"""Command line interface.

Exit codes: 0 on success, 1 for usage or input errors, 2 when a solve is
infeasible or tuning fails to produce a usable iterate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Optional

from .experiment import (
    DISTRIBUTIONS,
    STREAM_OOS,
    STREAM_TUNING,
    ExperimentConfig,
    Sweep,
    load_case,
    parse_config_file,
    run_experiment,
    write_report,
)
from .grid import parse_case_file, parse_integer, parse_number
from .ptdf import compute_ptdf, ptdf_to_csv
from .tuner import MODES, TuningError, trace_to_csv, tune
from .uncertainty import sampleset_to_csv
from .violation import evaluate, report_to_json

USAGE_ERROR = 1
SOLVE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; reserve 2 for solver failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def number(text: str) -> float:
    return float(parse_number(text))  # argparse's error names it: "invalid number value"


# Config keys set by command line flags: key -> flag.
_OVERRIDES = {"case": "case", "distributions": "distribution", "eps": "eps", "modes": "mode", "seed": "seed"}


def _config(args) -> ExperimentConfig:
    """Parse --config, if given, with the command's flags overriding its keys."""
    raw = parse_config_file(args.config) if args.config else {}
    for key, flag in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            raw[key] = str(value)
    return ExperimentConfig.from_mapping(raw)


def _sweep(args) -> Sweep:
    """A Sweep of the config's first distribution, the one the command
    works on, so it builds no spec it does not use. The command's pair
    is its replication 1, built exactly as the experiment builds it."""
    config = _config(args)
    return Sweep(replace(config, distributions=config.distributions[:1]))


def _dispatch_at_s(args):
    """The Sweep, its pair and the pair's dispatch at --s. A solve that
    returns no dispatch raises TuningError, so the command exits 2."""
    sweep = _sweep(args)
    pair = sweep.replication(sweep.config.distributions[0], 1)
    solution = pair.program.solve(args.s)
    if not solution.feasible:
        raise TuningError(f"{solution.status} at s={args.s:g}")
    return sweep, pair, solution


def cmd_parse(args) -> int:
    case = parse_case_file(args.file)
    load = sum(b.load_mw for b in case.buses)
    cap = sum(g.p_max_mw for g in case.generators)
    uncertain = ",".join(str(b) for b in case.uncertain_buses) or "-"
    print(
        f"buses={len(case.buses)} lines={len(case.lines)} "
        f"generators={len(case.generators)} load_mw={load:g} "
        f"capacity_mw={cap:g} uncertain_buses={uncertain}"
    )
    return 0


def cmd_ptdf(args) -> int:
    case = load_case(_config(args).case)
    ptdf = compute_ptdf(case, slack=args.slack)
    _write_or_print(ptdf_to_csv(ptdf), args.out)
    return 0


def cmd_sample(args) -> int:
    sweep = _sweep(args)
    samples = sweep.draw(sweep.config.distributions[0], STREAM_TUNING, 1, args.n)
    _write_or_print(sampleset_to_csv(samples, sweep.case), args.out)
    return 0


def cmd_solve(args) -> int:
    sweep, _, solution = _dispatch_at_s(args)
    lines = [f"s={args.s:.12g}", f"cost={solution.objective:.12g}"]
    for bus, value in enumerate(solution.p_g, start=1):
        if value != 0.0:
            lines.append(f"p{bus}={value * sweep.case.base_mva:.6g}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_tune(args) -> int:
    sweep = _sweep(args)
    config = sweep.config
    pair = sweep.replication(config.distributions[0], 1)
    tuning = config.cells[config.modes[0], config.eps_values[0]]
    result = tune(sweep.case, pair.catalog, pair.tuning_samples, tuning, pair.program)
    print(
        f"s={result.s:.6g} iterations={result.iterations} "
        f"cost={result.objective:.6g} eps_single={float(result.eps_single):.6g} "
        f"eps_joint={float(result.eps_joint):.6g} terminated_by={result.terminated_by}"
    )
    if args.out:
        if args.format == "json":
            payload = {
                "s": result.s,
                "cost": result.objective,
                "iterations": result.iterations,
                "terminated_by": result.terminated_by,
                "chosen_iteration": result.chosen_iteration,
                "eps_single": result.eps_single,
                "eps_joint": result.eps_joint,
                "trace": [asdict(it) for it in result.trace],
            }
            # default=float writes the exact Fraction frequencies as floats.
            _write_or_print(json.dumps(payload, indent=2, default=float), args.out)
        else:
            _write_or_print(trace_to_csv(result), args.out)
    return 0


def cmd_evaluate(args) -> int:
    sweep, pair, solution = _dispatch_at_s(args)
    samples = sweep.draw(sweep.config.distributions[0], STREAM_OOS, 1, args.n)
    report = evaluate(solution.p_g, samples, pair.catalog)
    text = report_to_json(report, pair.catalog)
    if args.out:
        _write_or_print(text, args.out)
    else:
        print(
            f"eps_single={float(report.eps_single):.6g} "
            f"eps_joint={float(report.eps_joint):.6g} n={report.n_samples}"
        )
    return 0


def cmd_experiment(args) -> int:
    config = _config(args)
    report = run_experiment(config, jobs=args.jobs)
    # Written first, so a run whose rows all failed keeps their errors.
    if args.out:
        write_report(report, args.out, fmt=args.format)
    if report.rows and all(r.failed for r in report.rows):
        print("all replications failed", file=sys.stderr)
        return SOLVE_ERROR
    for a in report.averages:
        if not a.replications:
            print(f"{a.mode} {a.distribution} eps={a.eps_des:g} reps=0 (all failed)")
            continue
        s_true = "" if a.s_true is None else f" s_true={a.s_true:.4f}"
        print(
            f"{a.mode} {a.distribution} eps={a.eps_des:g} reps={a.replications} "
            f"iters={a.iterations:.1f} cost={a.cost:.1f} s={a.s:.4f}{s_true} "
            f"eps_oos_single={a.eps_oos_single:.4f} eps_oos_joint={a.eps_oos_joint:.4f}"
        )
    return 0


# Every flag, declared once: name -> add_argument keywords.
_FLAGS = {
    "file": {},
    "--case": {},
    "--config": {},
    "--distribution": {"choices": DISTRIBUTIONS},
    "--eps": {},
    "--mode": {"choices": MODES},
    "--seed": {},
    "--s": {"type": number, "required": True},
    "--n": {"type": parse_integer},
    "--slack": {"type": parse_integer, "default": 1},
    "--jobs": {"type": parse_integer, "default": 1},
    "--out": {},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="cctuner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags, **extra):
        """Add a subcommand taking the named _FLAGS; extra maps a flag's
        dest to keywords this command adds to its entry."""
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag], **extra.get(flag.lstrip("-"), {}))
        p.set_defaults(func=func)

    command("parse", cmd_parse, "validate a case file and print a summary", "file")
    command("ptdf", cmd_ptdf, "write the injection shift factor matrix as CSV",
            "--case --config --slack --out", case={"help": "case key or path (default rts24)"})
    command("sample", cmd_sample, "draw uncertainty samples as CSV",
            "--case --config --distribution --n --seed --out", n={"default": 1000})
    command("solve", cmd_solve, "solve the tightened dispatch at a fixed s",
            "--case --config --distribution --s --out")
    command("tune", cmd_tune, "bisect s to the target violation probability",
            "--case --config --distribution --eps --mode --seed --out --format",
            out={"help": "write the bisection trace here"})
    command("evaluate", cmd_evaluate, "measure violation frequencies at a fixed s",
            "--case --config --distribution --s --n --seed --out",
            n={"default": 10_000}, out={"help": "write the full JSON report here"})
    command("experiment", cmd_experiment, "run a replicated tuning sweep",
            "--config --eps --mode --seed --jobs --out --format", config={"required": True})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, TuningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOLVE_ERROR if isinstance(exc, TuningError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
