"""Command-line dispatcher: flag parsing, dispatch and exit codes.

Grammar: deltasite <command> [--model PATH] [flags] [--format {json,text}]
[--seed N].  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
model errors.  DELTASITE_SEED sets the default seed, read on every call;
flags always win.  stochastic.simulate and stochastic.verify_ito judge the
sampling commands on the report's params.  Those two and the cone check of
check-sheaf set NumPy's float traps themselves, so a computation that leaves
the float range raises there, and main maps it to exit 2; this module never
imports NumPy.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import sheaves, sites, tropical
from .errors import ClosureError, DeltasiteError, ModelError
from .filtration import check_operad_action
from .model_io import ModelDescription, load_model
from .reports import Report
from .roofs import RoofCategory, verify_roof_category

USAGE_EXIT = 2
# `series --op`: its choices, and the builder of each
SERIES = {"exp": tropical.exp_series, "log": tropical.log_inverse_series,
          "paper-log": tropical.paper_log_series}
# `series --order` stops here, far below where exp's 1/n! passes the int-to-str digit limit
MAX_SERIES_ORDER = 100


def _path_count(text: str) -> int:
    """--paths of the sampling commands: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


def _series_order(text: str) -> int:
    """--order of `series`: an integer of at most MAX_SERIES_ORDER."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_SERIES_ORDER:
        raise argparse.ArgumentTypeError(f"order must be at most {MAX_SERIES_ORDER}, "
                                         f"got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """The float flags: a finite number; nan and the infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call; later calls
    return the same object.  It holds nothing that changes between calls."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="deltasite",
        description="Finite event sites, topology verification, and delta-calculus checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, model=False):
        p.set_defaults(run=run)
        if model:
            p.add_argument("--model", required=True, help="model description file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        # None means "not given": main reads DELTASITE_SEED on each call, so
        # the shared parser keeps no seed of its own
        p.add_argument("--seed", type=int)

    p = sub.add_parser("check-site", help="verify Grothendieck topology axioms")
    p.add_argument("--topology", required=True,
                   choices=("operadic", "probability", "structural"))
    common(p, cmd_check_site, model=True)

    p = sub.add_parser("check-roofs", help="verify the roof category and its topology")
    common(p, cmd_check_roofs, model=True)

    p = sub.add_parser("check-sheaf", help="sheaf gluing or transversal cone checks")
    p.add_argument("--mode", choices=("gluing", "cones"), default="gluing")
    p.add_argument("--kappa", type=_finite_float, default=3.0)
    p.add_argument("--sigma", type=_finite_float, default=1.0)
    p.add_argument("--paths", type=_path_count, default=10_000)
    common(p, cmd_check_sheaf, model=True)

    for name, text, alpha, sigma, steps, paths in (
            ("simulate", "simulate geometric Brownian motion", 0.0, 0.0, 100, 1),
            ("verify-ito", "delta-calculus identity and limit checks", 0.1, 0.2, 1000, 200)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--alpha", type=_finite_float, default=alpha)
        p.add_argument("--sigma", type=_finite_float, default=sigma)
        p.add_argument("--x0", type=_finite_float, default=1.0)
        p.add_argument("--T", type=_finite_float, default=1.0)
        p.add_argument("--steps", type=int, default=steps)
        p.add_argument("--paths", type=_path_count, default=paths)
        common(p, cmd_sample)

    p = sub.add_parser("tropicalize", help="tropical value of the log-SDE")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--with-markers", action="store_true")
    common(p, cmd_tropicalize)

    p = sub.add_parser("series", help="exact coefficients of the graded series")
    p.add_argument("--op", required=True, choices=tuple(SERIES))
    p.add_argument("--order", type=_series_order, required=True)
    common(p, cmd_series)

    _parser = parser
    return parser


# -- command implementations ----------------------------------------------------
# A handler adds its records to the report that `main` headed from the flags;
# `model` is None for the commands without --model.


def cmd_check_site(args, model: ModelDescription, report: Report):
    report.extend(model.category.check_axioms())
    if args.topology == "structural":
        site = sites.build_tau_structural(model.category)
        report.extend(sites.verify_grothendieck(site))
        return
    F = model.require_filtration()
    if args.topology == "operadic":
        report.extend(check_operad_action(F))
        filtered = sites.build_tau_operadic(F, model.category)
    else:
        P = model.require_measure()
        filtered = sites.build_tau_P(F, P, model.category)
    report.extend(sites.verify_filtered(filtered))


def cmd_check_roofs(args, model: ModelDescription, report: Report):
    report.extend(model.category.check_axioms())
    rc = RoofCategory(model.category)
    try:
        report.extend(verify_roof_category(rc))
    except ClosureError as exc:
        report.add("roof-axioms", "composition closure", False, str(exc))
        return
    report.extend(sites.verify_grothendieck(sites.build_tau_structural(model.category)))


def cmd_check_sheaf(args, model: ModelDescription, report: Report):
    if args.mode == "gluing":
        targets = [sites.build_tau_structural(model.category)]
        if model.filtration is not None and model.measure is not None:
            targets.extend(sites.build_tau_P(model.filtration, model.measure,
                                             model.category).values())
        for site in targets:
            presheaf = sheaves.constant_presheaf(site, values=(0.0, 1.0))
            report.extend(sheaves.check_sheaf_condition(presheaf), prefix=f"{site.label}: ")
        return
    F = model.filtration
    if F is not None and len(F.index.base_times) >= 2:
        t0, t1 = float(F.index.base_times[0]), float(F.index.base_times[-1])
    else:
        t0, t1 = 0.0, 1.0
    report.extend(sheaves.transversal_cone_check(args.sigma, args.kappa, t0, t1,
                                                 n_paths=args.paths, seed=args.seed))


def cmd_sample(args, model, report: Report):
    """simulate and verify-ito: the verdict of that name in `stochastic`, on the params."""
    from . import stochastic
    report.extend(getattr(stochastic, args.command.replace("-", "_"))(**report.params))


def cmd_tropicalize(args, model, report: Report):
    value = tropical.tropicalize_log_sde(args.alpha, args.sigma,
                                         with_markers=args.with_markers)
    report.add("tropical-value", f"{float(value)!r}", None)
    if args.with_markers:
        plain = tropical.tropicalize_log_sde(args.alpha, args.sigma)
        report.add("marker-shift", f"{float(value - plain)!r}", None)


def cmd_series(args, model, report: Report):
    s = SERIES[args.op](args.order)
    report.add("coefficients", "[" + ", ".join(str(c) for c in s.coeffs) + "]", None)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        env = os.environ.get("DELTASITE_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            # a malformed DELTASITE_SEED is a usage error rather than a silent seed 0
            parser.error(f"argument --seed: invalid int value: {env!r}")
    # a report's params echo every flag of its command but --model and --format
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "model", "format", "run")}
    model = model_hash = None
    try:
        if "model" in args:
            try:
                model, model_hash = load_model(args.model)
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: cannot read model: {exc}", file=sys.stderr)
                return USAGE_EXIT
        report = Report(args.command, model_hash, params)
        args.run(args, model, report)
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: out of numeric range: {(exc.args or [exc])[-1]}", file=sys.stderr)
        return USAGE_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ModelError as exc:
        for path, message in exc.errors:
            print(f"error: {path}: {message}", file=sys.stderr)
        return USAGE_EXIT
    except DeltasiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    sys.stdout.write(report.render(args.format))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
