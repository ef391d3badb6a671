"""Command-line entry points: train, ablate, gradcheck, gen."""

from __future__ import annotations

import argparse
import sys

from . import tasks
from .errors import ConfigError, ContractError, NcgruError
from .harness import ABLATION_MODES, ExperimentConfig, run_ablation, run_gradcheck, run_training


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="run one training config")
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", default=None, help="override the output directory")


def _add_ablate(sub) -> None:
    p = sub.add_parser("ablate", help="run a multi-arm ablation")
    p.add_argument("--mode", required=True, choices=ABLATION_MODES)
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--out", default=None, help="directory for per-arm outputs")


def _add_gradcheck(sub) -> None:
    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", required=True, choices=("cayley", "cell", "bptt", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=None,
                   help="random instances per scope (default: scope-specific)")


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="dump generated task samples as JSON lines")
    p.add_argument("--task", required=True, choices=tasks.TASK_NAMES)
    p.add_argument("--T", required=True, type=int)
    p.add_argument("--count", required=True, type=int, help="number of samples")
    p.add_argument("--out", required=True, help="output .jsonl path")
    p.add_argument("--seed", type=int, default=0)


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    run = run_training(cfg, out_dir=args.out, seed=args.seed)
    last = run.metrics[-1] if run.metrics else None
    print(f"status={run.status} iterations={len(run.metrics)}"
          + (f" train_loss={last.train_loss:.6g}" if last else "")
          + (f" eval_loss={run.final_eval:.6g}" if run.final_eval is not None else "")
          + f" max_drift={run.max_drift:.3e} max_contraction={run.max_contraction:.3e}")
    if run.metrics_path:
        print(f"metrics: {run.metrics_path}")
    if run.checkpoint_path:
        print(f"checkpoint: {run.checkpoint_path}")
    return 0 if run.status == "completed" else 1


def _cmd_ablate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    results = run_ablation(args.mode, cfg, out_dir=args.out)
    failed = False
    for label, run in results:
        failed |= run.status != "completed"
        ev = f" eval={run.final_eval:.6g}" if run.final_eval is not None else ""
        print(f"[{label}] status={run.status}{ev} max_drift={run.max_drift:.3e}"
              f" max_contraction={run.max_contraction:.3e}")
    return 1 if failed else 0


def _cmd_gradcheck(args) -> int:
    if args.instances is not None and args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    scopes = ("cayley", "cell", "bptt") if args.scope == "all" else (args.scope,)
    ok = True
    for scope in scopes:
        rep = run_gradcheck(scope, seed=args.seed, instances=args.instances)
        ok &= rep.passed
        print(f"scope={scope} max_rel_err={rep.max_rel_err:.3e} tol={rep.tol:g} "
              + ("PASS" if rep.passed else "FAIL"))
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    try:
        batch = tasks.make_batch(args.task, args.T, args.count, args.seed)
    except ContractError as err:
        # the task name is checked by argparse, so this is --T, --count or --seed
        raise ConfigError(str(err)) from err
    n = tasks.dump_jsonl(batch, args.out)
    print(f"wrote {n} samples to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncgru",
        description="Orthogonal GRU training via Neumann-Cayley updates")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_ablate(sub)
    _add_gradcheck(sub)
    _add_gen(sub)
    args = parser.parse_args(argv)
    handlers = {"train": _cmd_train, "ablate": _cmd_ablate,
                "gradcheck": _cmd_gradcheck, "gen": _cmd_gen}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as err:
        # an OSError is an unreadable config or an unwritable output path
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NcgruError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
