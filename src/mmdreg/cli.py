"""Command-line interface.

Subcommands cover the benchmark loop end to end: ``simulate`` writes a
scenario draw, ``contaminate`` corrupts a CSV in place of the clean
rows, ``fit`` estimates a model on one dataset, ``bench`` runs a full
replication plan, and ``mmd`` prints the squared discrepancy between
two datasets.  Exit codes: 0 on success, 2 on validation problems
(bad flags, malformed files, incompatible settings), 3 on numerical
failure.
"""

import argparse
import os
import sys

from .bench import plan_from_config, run_plan, write_results
from .contamination import ContaminationSpec, contaminate
from .dataio import (
    export_contaminated,
    fit_config_from_dict,
    load_config,
    load_csv,
    write_csv,
    write_fit_result,
    _sidecar_path,
)
from .errors import ConfigError, DomainError, FormatError, NumericalError
from .fitting import fit
from .kernels import _joint_points, spec_from_dict
from .models import _FAMILY_REGISTRY, get_family, list_scenarios, simulate_dataset
from .objective import mmd_sq_vstat


def _cmd_simulate(args):
    _, ds = simulate_dataset(args.scenario, args.n, args.seed)
    write_csv(ds, args.out)
    print(f"wrote {ds.x.shape[0]} rows ({ds.kind}) to {args.out}")
    return 0


def _cmd_contaminate(args):
    ds = load_csv(args.infile, kind=args.kind)
    spec = ContaminationSpec(
        epsilon=args.eps, scheme=args.scheme, recipe=args.recipe,
        mean=args.recipe_mean, seed=args.seed,
    )
    out = contaminate(ds, spec)
    sidecar = export_contaminated(out, args.out)
    touched = len(out.meta["contamination"]["indices"])
    print(f"touched {touched} of {ds.x.shape[0]} rows; wrote {args.out} and {sidecar}")
    return 0


def _cmd_fit(args):
    # A contamination sidecar marks data corrupted on purpose, so the
    # selection-structure check is waived for it automatically.
    lenient = args.lenient or os.path.exists(_sidecar_path(args.infile))
    ds = load_csv(args.infile, kind=_FAMILY_REGISTRY[args.model].kind, strict=not lenient)
    family_kwargs = {} if args.components is None else {"n_components": args.components}
    family = get_family(args.model, ds.d, **family_kwargs)
    cfg = load_config(args.config) if args.config else {}
    if args.estimator is not None:
        cfg["estimator"] = args.estimator
    result = fit(family, ds, fit_config_from_dict(cfg))
    if args.out:
        write_fit_result(result, args.out)
    if result.error is not None:
        raise NumericalError(f"fit aborted: {result.error}")
    shown = ", ".join(
        f"{name}={value:.6g}"
        for name, value in zip(result.natural_names, result.theta_natural)
    )
    print(f"{result.estimator}: {shown}")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return 0


def _cmd_bench(args):
    plan = plan_from_config(load_config(args.plan))
    table = run_plan(plan, threads=args.threads)
    json_path, csv_path = write_results(table, args.out)
    for row in table.rows:
        print(
            f"n={row['n']} eps={row['epsilon']} recipe={row['recipe']} "
            f"{row['estimator']}: rmse={row['rmse']:.4f} "
            f"({row['reps_ok']} ok, {row['reps_failed']} failed)"
        )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def _cmd_mmd(args):
    spec = spec_from_dict(load_config(args.kernel))
    a = load_csv(args.a, strict=False)
    b = load_csv(args.b, strict=False)
    value = mmd_sq_vstat(spec, _joint_points(spec, a.x, a.y), _joint_points(spec, b.x, b.y))
    print(format(value, ".17g"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmdreg",
        description="Robust regression by kernel discrepancy minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a clean scenario dataset")
    p.add_argument("--scenario", required=True, choices=list_scenarios())
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("contaminate", help="inject outliers into a dataset CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--scheme", default="adversarial")
    p.add_argument("--recipe", default="type_y")
    p.add_argument("--recipe-mean", type=float, default=None)
    p.add_argument("--kind", default=None,
                   help="response kind for scalar files (default: real)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contaminate)

    p = sub.add_parser("fit", help="fit one model to one dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True, choices=list(_FAMILY_REGISTRY))
    p.add_argument("--estimator", default=None)
    p.add_argument("--config", default=None, help="fit config (JSON/TOML)")
    p.add_argument("--components", type=int, default=None,
                   help="mixture components (default 2); other models refuse it")
    p.add_argument("--lenient", action="store_true",
                   help="skip the strict selection-structure check")
    p.add_argument("--out", default=None, help="write the fit result JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bench", help="run a replication plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default 1)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("mmd", help="squared discrepancy between two datasets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kernel", required=True, help="kernel config (JSON/TOML)")
    p.set_defaults(func=_cmd_mmd)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
