"""Command-line dispatcher.

Grammar: deltasite <command> [--model PATH] [flags] [--format {json,text}]
[--seed N].  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
model errors.  DELTASITE_SEED sets the default seed, read on every call;
flags always win.  Only the commands that compute with NumPy import it.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

from . import sheaves, sites, tropical
from .errors import ClosureError, DeltasiteError, ModelError, PreconditionError
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

    for name, text, run, alpha, sigma, steps, paths in (
            ("simulate", "simulate geometric Brownian motion", cmd_simulate, 0.0, 0.0, 100, 1),
            ("verify-ito", "delta-calculus identity and limit checks", cmd_verify_ito,
             0.1, 0.2, 1000, 200)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--alpha", type=_finite_float, default=alpha)
        p.add_argument("--sigma", type=_finite_float, default=sigma)
        p.add_argument("--x0", type=_finite_float, default=1.0)
        p.add_argument("--T", type=_finite_float, default=1.0)
        p.add_argument("--steps", type=int, default=steps)
        p.add_argument("--paths", type=_path_count, default=paths)
        common(p, run)

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


@contextmanager
def _float_traps():
    """NumPy's overflow, invalid operation and division by zero raise inside,
    so a computation that leaves the float range is a bad parameter (exit 2
    from main), not a report.  The handlers that compute with NumPy enter it;
    the others never import NumPy."""
    import numpy as np
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield


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
    with _float_traps():
        report.extend(sheaves.transversal_cone_check(args.sigma, args.kappa, t0, t1,
                                                     n_paths=args.paths, seed=args.seed))


def _positive_finite(label: str, value: float) -> float:
    """value, if it is a positive finite number; else a usage error."""
    if not (math.isfinite(value) and value > 0):
        raise PreconditionError(f"{label} is not a positive finite number: {value!r}")
    return value


@_float_traps()
def cmd_simulate(args, model, report: Report):
    import numpy as np

    from . import stochastic
    params = stochastic.GBMParams(args.alpha, args.sigma, args.x0, args.T,
                                  args.steps, args.seed)
    # an overflow shows up as a terminal value that is not positive and finite
    with np.errstate(over="ignore", invalid="ignore"):
        if args.paths == 1:
            terminal = _positive_finite("terminal value X_T",
                                        stochastic.simulate_gbm(params).terminal)
            report.add("terminal-value", f"X_T={terminal!r}", None)
            report.add("log-rate", f"{math.log(terminal / args.x0) / args.T!r}", None)
        else:
            rates = stochastic.gbm_terminal_log_rates(params, args.paths)
            terminal_mean = _positive_finite(
                "mean terminal value", float(np.mean(args.x0 * np.exp(rates * args.T))))
            report.add("mean-terminal", f"{terminal_mean!r}", None)
            if args.paths >= 30:
                est = stochastic.estimate_log_drift(rates)
                figures = {"mean": est.mean, "stderr": est.stderr}
            else:
                figures = {"mean": float(np.mean(rates))}
            drift = " ".join(f"{name}={value!r}" for name, value in figures.items())
            if not all(map(math.isfinite, figures.values())):  # a spread that overflows
                raise FloatingPointError(f"log-drift {drift}")
            report.add("log-drift", drift, None)


@_float_traps()
def cmd_verify_ito(args, model, report: Report):
    import numpy as np

    from . import stochastic
    seed, T, n = args.seed, args.T, args.steps
    # the trend draws from seed + 1 and the log drift from seed + 2
    if not 0 <= seed < 2**128 - 2:
        raise PreconditionError(f"seed must lie in [0, 2**128 - 2) on verify-ito, "
                                f"got {seed}")
    params = stochastic.GBMParams(args.alpha, args.sigma, args.x0, T,
                                  max(1, n // 10), seed + 2)
    pairs = min(args.paths, 100)

    # One pass over the blocks of streams 0.. serves the product-rule pairs (2i, 2i+1),
    # the quadratic variation of the first `paths` streams and the w2 path (stream 0);
    # a block that starts at an odd stream pairs its first row with the last one before.
    part = stochastic.Partition.uniform(T, n)
    worst, qvs = 0.0, np.empty(args.paths)
    for streams, values in stochastic.brownian_blocks(
            part, seed, range(max(args.paths, 2 * pairs))):
        start = streams.start
        paired = values[:max(0, 2 * pairs - start)]
        if start % 2 and len(paired):
            paired = np.concatenate((carried[None], paired))
        carried = values[-1]
        k = len(paired) // 2
        x, y = (stochastic.DiscretePath(part, 1.0 + paired[j:2 * k:2]) for j in (0, 1))
        xy = x.values * y.values
        scale = np.maximum(np.abs(xy, out=xy).max(axis=1), 1.0)
        worst = float(np.max(stochastic.check_product_rule(x, y) / scale, initial=worst))
        rows = values[:max(0, args.paths - start)]
        qvs[start:start + len(rows)] = stochastic.quadratic_variation(
            stochastic.DiscretePath(part, rows))
        if start == 0:
            w0 = stochastic.DiscretePath(part, values[0])
    report.add("product-rule", f"max relative residual {worst!r}", worst <= 1e-10)

    # quadratic variation concentration
    band = 3.0 * math.sqrt(2.0 / n) * T
    hits = int(np.count_nonzero(np.abs(qvs - T) <= band))
    report.add("quadratic-variation",
               f"{hits}/{args.paths} paths within {band!r} of T", hits / args.paths >= 0.95)

    # Ito residual: quadratic case exact, cubic case shrinking with the mesh
    exact = stochastic.ito_residual("w2", w0, quadratic_term="increments")
    scale = max(float(np.max(np.abs(w0.values))) ** 2, 1.0)
    report.add("ito-w2-exact", f"residual {exact!r}", exact <= 1e-10 * scale)
    # squared by the scalar pow, which NumPy's square differs from in the last bit
    rms = [math.sqrt(math.fsum(r ** 2 for r in residuals.tolist()) / pairs)
           for residuals in stochastic.ito_residual_halving("w3", T, n, seed + 1, range(pairs))]
    if rms[1]:
        ratio = rms[0] / rms[1]
        report.add("ito-w3-trend", f"RMS ratio per halving {ratio!r}", 1.15 <= ratio <= 1.85)
    else:  # every fine-mesh residual squares to 0: there is no ratio to judge
        report.add("ito-w3-trend", f"residuals underflow at T={T!r}", None)

    # log drift of the simulated SDE
    n_paths = max(args.paths, 30)
    rates = stochastic.gbm_terminal_log_rates(params, n_paths)
    est = stochastic.estimate_log_drift(rates)
    target = params.drift
    lo, hi = est.interval
    # the rates are a rounding or two from the drift, so at sigma = 0, where
    # the band has no width, the mean may miss it by a few ulps
    slack = 32 * math.ulp(target)
    report.add("log-drift",
               f"mean={est.mean!r} target={target!r} 3se={3 * est.stderr!r}",
               lo - slack <= target <= hi + slack)


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
            except OSError as exc:
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
