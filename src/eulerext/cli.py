"""Command-line surface for sampling, extension, oracle, bounds, experiments.

Structured results print as JSON on stdout; graphs and trial records go
to files. Exit status: 0 = ran to completion (per-trial or per-graph
engine failures are data, not errors), 2 = bad configuration or input
(including a number out of range or an input too large to allocate),
3 = file I/O problem.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .bounds import DEFAULT_BETA, DEFAULT_GAMMA, default_params, step_success_bound
from .experiment import _draw_trial, run_trials, write_records
from .extension import _verify_or_raise, extend
from .graph import load_edge_list, save_edge_list
from .models import MODEL_KINDS, ModelError, alpha_stats, build_model, check_condition, load_model_spec
from .oracle import min_extension_exact

__all__ = ["main", "EXIT_OK", "EXIT_BAD_CONFIG", "EXIT_IO"]

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO = 3


class _StoreOnce(argparse.Action):
    # notes a spec-key flag given twice, which _build_model rejects as a spec file's repeated key
    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            namespace.repeated_flag = self.option_strings[0]
        setattr(namespace, self.dest, values)


def _add_model_arguments(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("model (spec file or inline flags)")
    group.add_argument(
        "--model",
        metavar="FILE",
        help="model spec file (key: value lines); takes no inline model flags, except --n on bounds",
    )
    group.add_argument(
        "--model-type",
        action=_StoreOnce,
        choices=tuple(MODEL_KINDS),
        help="inline model kind; needs --n plus its parameters",
    )
    group.add_argument(
        "--n",
        action=_StoreOnce,
        type=int,
        help="vertex count for inline models; bounds with --model FILE re-evaluates that model at this n",
    )
    for kind, (_, keys) in MODEL_KINDS.items():
        for key, what in keys.items():
            group.add_argument("--" + key.replace("_", "-"), action=_StoreOnce, help=f"{what} ({kind})")
    parser.set_defaults(repeated_flag=None)


def _build_model(args, spec_takes_n=False):
    """The model of --model FILE or of the inline flags; a spec-key flag
    given twice, or inline flags next to --model, are config errors, except
    --n next to --model where spec_takes_n."""
    if args.repeated_flag is not None:
        raise ModelError(f"{args.repeated_flag} given twice")
    if args.model is not None:
        inline = ["model_type"] + ([] if spec_takes_n else ["n"])
        inline += [key for _, keys in MODEL_KINDS.values() for key in keys]
        extra = ["--" + key.replace("_", "-") for key in inline if getattr(args, key) is not None]
        if extra:
            raise ModelError(f"--model FILE takes no inline model flags, got {', '.join(extra)}")
        return load_model_spec(args.model)
    if args.model_type is None:
        raise ModelError("provide --model FILE or --model-type with its parameters")
    fields = {"type": args.model_type, "n": args.n}
    for _, keys in MODEL_KINDS.values():
        fields.update((key, getattr(args, key)) for key in keys)
    return build_model(fields)


def _jsonable(value):
    # json.dumps would emit bare Infinity/NaN tokens, which strict parsers
    # reject; strings keep the output plain JSON
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _print_json(obj):
    print(json.dumps(_jsonable(obj), indent=2, allow_nan=False))


def _cmd_sample(args):
    model = _build_model(args)
    seed, _, g = _draw_trial(model, args.seed, args.trial_index)
    if args.out is not None:
        save_edge_list(g, args.out)
    _print_json(
        {
            "n": g.n,
            "m": g.m,
            "max_degree": g.max_degree(),
            "t_value": g.t_value(),
            "connected": g.is_connected(),
            "base_seed": args.seed,
            "trial_index": args.trial_index,
            "derived_seed": seed,
            "out": args.out,
        }
    )


def _cmd_extend(args):
    if args.max_attempts is not None and args.seed is None:
        raise ValueError("--max-attempts budgets the random probes, which need --seed")
    g = load_edge_list(args.graph)
    rng = None if args.seed is None else np.random.default_rng(args.seed)
    result = extend(g, rng=rng, max_random_attempts=args.max_attempts)
    _verify_or_raise(g, result)
    if result.success:
        extended = g.copy()
        for edge in result.added_edges:
            extended.add_edge(edge.u, edge.v)
        save_edge_list(extended, args.out)
    _print_json(
        {
            "success": result.success,
            "t_input": result.t_input,
            **result.count_fields(),
            "attempts_phase3": result.attempts_phase3,
            "failure_reason": result.failure_reason,
            "failing_pair": result.failing_pair,
            "added": [[e.u, e.v, e.phase] for e in result.added_edges],
            "out": args.out if result.success else None,
        }
    )


def _cmd_oracle(args):
    g = load_edge_list(args.graph)
    answer = min_extension_exact(g, cap=args.cap)
    _print_json(
        {
            "extendable": answer.extendable,
            "min_edges": answer.min_edges,
            "witness": answer.witness,
            "t_value": g.t_value(),
            "cap": answer.cap,
        }
    )


def _cmd_bounds(args):
    model = _build_model(args, spec_takes_n=True)
    stats = alpha_stats(model)
    # with inline flags --n already is the model size; with a spec file it
    # re-evaluates the size-dependent terms at a different n
    n = args.n if args.n is not None else model.n
    condition = check_condition(stats, n, args.beta, args.gamma)
    params = default_params(n, args.beta, args.gamma)
    step = step_success_bound(stats, n, params, args.t)
    alpha = asdict(stats)
    del alpha["per_vertex_avg"]
    _print_json(
        {
            "n": n,
            "alpha": alpha,
            "condition": asdict(condition),
            "params": asdict(params),
            "step_bound": asdict(step),
        }
    )


def _cmd_experiment(args):
    model = _build_model(args)
    records, summary = run_trials(model, args.trials, args.seed, args.beta, args.gamma, args.max_attempts)
    write_records(records, args.out, args.format)
    _print_json({"out": args.out, "format": args.format, "summary": asdict(summary)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerext",
        description="Sample inhomogeneous random graphs and build Eulerian extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample one graph from a model")
    _add_model_arguments(p)
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--trial-index", type=int, default=0, help="index mixed into the seed")
    p.add_argument("--out", metavar="FILE", help="write the sampled graph as an edge list")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("extend", help="make a graph Eulerian by adding complement edges")
    p.add_argument("--graph", metavar="FILE", required=True, help="input edge-list file")
    p.add_argument("--seed", type=int, help="seed for random probing; omit for deterministic scan")
    p.add_argument("--max-attempts", type=int, help="random probes per pair before scanning; needs --seed")
    p.add_argument("--out", metavar="FILE", required=True, help="extended graph (written on success)")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("oracle", help="exact minimum extension for small graphs")
    p.add_argument("--graph", metavar="FILE", required=True, help="input edge-list file")
    p.add_argument("--cap", type=int, help="largest extension size to consider (default 3t)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bounds", help="alpha stats, density window, and step bounds for a model")
    _add_model_arguments(p)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA, help=f"default {DEFAULT_BETA}")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA, help=f"default {DEFAULT_GAMMA}")
    p.add_argument("--t", type=int, default=0, help="repair steps for the product bound (default 0)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="seeded Monte Carlo batch with record emission")
    _add_model_arguments(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA, help=f"default {DEFAULT_BETA}")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA, help=f"default {DEFAULT_GAMMA}")
    p.add_argument("--max-attempts", type=int, help="random probes per pair before scanning")
    p.add_argument("--out", metavar="FILE", required=True, help="trial record file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        # OverflowError: a number too large for a float or an index, such as --n 10**400
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MemoryError as exc:
        # an input too large to allocate, such as a huge vertex count
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
