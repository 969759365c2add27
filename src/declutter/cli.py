"""Command line interface.

Subcommands:
  generate   write scene JSON files for a tier
  run        run one policy on one scene file, print the trial report
  bench      execute an experiment plan, emit CSV summaries and JSONL trials
  fit-time   fit time-model parameters to a reference timing table

Exit codes: 0 success, 2 usage error (an unwritable output path, or a
trial that reaches its action cap, too), 3 schema error (a missing or
unreadable input file too), 4 infeasible action.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .config import config_to_json_obj, load_config
from .errors import ActionCapReached, InfeasibleAction, PlacementExhausted, SchemaError, read_file
from .harness import generate_scene_files, plan_from_json, run_plan, trace_lines
from .metrics import build_report
from .policies import PolicyConfig, PolicyKind, UtensilStacking, run_policy
from .rng import derive_seed
from .tableware import Tier, scene_from_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_INFEASIBLE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="declutter",
        description="Deterministic tabletop decluttering simulator and benchmark harness",
    )
    parser.add_argument(
        "--config", default=None,
        help="config JSON path (default: $DECLUTTER_CONFIG or built-in defaults)",
    )
    # Accepted after the subcommand too; SUPPRESS keeps an omitted
    # subcommand-level flag from clobbering the global one.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="config JSON path")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[shared],
                         help="generate scene files for a tier")
    gen.add_argument("--tier", required=True, choices=[t.value for t in Tier])
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", parents=[shared],
                         help="run one policy on one scene file")
    run.add_argument("--scene", required=True)
    run.add_argument("--policy", required=True, choices=[k.value for k in PolicyKind])
    run.add_argument("--utensil-stacking", default=None,
                     choices=[m.value for m in UtensilStacking])
    run.add_argument("--seed", type=int, default=None,
                     help="trial seed (default: derived from scene seed and policy)")
    run.add_argument("--trace", default=None, help="write the JSONL trace here")

    bench = sub.add_parser("bench", parents=[shared],
                           help="execute an experiment plan")
    bench.add_argument("--plan", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--jobs", type=int, default=1)

    fit = sub.add_parser("fit-time", parents=[shared],
                         help="fit time model to a reference table")
    fit.add_argument("--table", default=None,
                     help="CSV with columns tier,policy,time_s (default: built-in table)")
    fit.add_argument("--out", default=None, help="write the config fragment here")

    sub.add_parser("show-config", parents=[shared],
                   help="print the effective config JSON")

    return parser


def _cmd_generate(args, sim) -> int:
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    paths = generate_scene_files(Tier(args.tier), args.count, args.seed, args.out, sim)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_run(args, sim) -> int:
    scene_path = Path(args.scene)
    scene = scene_from_json(read_file(scene_path, "scene file"), sim.dish_specs)
    policy = PolicyConfig.named(args.policy, args.utensil_stacking)
    seed = args.seed
    if seed is None:
        seed = derive_seed(scene.rng_seed, "trial", policy.kind.value)
    trace = run_policy(scene, policy, sim, seed)
    report = build_report(trace, sim.time_model, scene_path.stem)
    if args.trace:
        Path(args.trace).write_text(trace_lines(trace))
    print(
        f"# {report.scene_id}: policy={report.policy} trips={report.trips} "
        f"opt={report.opt:.4f} time={report.time_s:.3f}s failures={report.failures}"
    )
    print(json.dumps(report.to_json_obj()))
    return EXIT_OK


def _cmd_bench(args, sim) -> int:
    plan = plan_from_json(read_file(args.plan, "plan file"))
    reports, summaries = run_plan(plan, sim, args.out, jobs=args.jobs)
    print(f"{len(reports)} trials -> {args.out}")
    for row in summaries:
        print(
            f"{row.tier:12s} {row.policy:7s} mean_time={row.mean_time_s:8.2f}s "
            f"opt={row.mean_opt:.3f} failures={row.failures} "
            f"time_ratio={row.time_ratio:.2f} opt_ratio={row.opt_ratio:.2f}"
        )
    return EXIT_OK


def _cmd_fit_time(args, sim) -> int:
    # Only this command needs the fitter and its CSV parser.
    from .timefit import fit_time_model, parse_reference_csv, simulated_counts

    reference = parse_reference_csv(read_file(args.table, "table file")) if args.table else None
    counts = simulated_counts(sim)
    result = fit_time_model(counts, reference)
    fragment = {"time_model": asdict(result.time_model)}
    report = {
        **fragment,
        "relative_rms_residual": round(result.relative_rms_residual, 6),
        "rows": [
            {
                "tier": row["tier"],
                "policy": row["policy"],
                "observed": row["observed"],
                "predicted": round(row["predicted"], 3),
            }
            for row in result.rows
        ],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(fragment, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_show_config(args, sim) -> int:
    print(json.dumps(config_to_json_obj(sim), indent=2))
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "fit-time": _cmd_fit_time,
    "show-config": _cmd_show_config,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sim = load_config(args.config)
        return _COMMANDS[args.command](args, sim)
    except (SchemaError, PlacementExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleAction as exc:
        print(f"infeasible action (policy bug): {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ActionCapReached) as exc:  # an unwritable output, or the action cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
