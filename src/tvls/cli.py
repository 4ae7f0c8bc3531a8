"""Command-line interface.

Numeric tables go to CSV (no header rows, ``%.17g`` floats so values
round-trip bit-for-bit); reports go to JSON.  Every run emits a manifest
echoing the resolved parameters, library version, and seed: next to the
output file as ``<out>.manifest.json`` when ``--out`` is given, otherwise
as a single ``{"manifest": ...}`` line on stderr.  Re-running the argv
recorded in a manifest reproduces the output byte for byte.  Truncation and
tail-mass warnings are listed in the manifest's ``warnings`` entry instead of
being printed.

Exit codes: 0 on success, 2 when inputs fail a precondition (a JSON object
naming the problem is printed to stderr), 1 on internal errors.
"""

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PreconditionError, TailMassWarning, TruncationWarning
from .kernels import convergence_diagnostic, kernel_grid
from .model import CarmaModel, companion_from_carma, model_from_json
from .quadrature import _grid_steps
from .simulate import simulate_paths
from .spectral import GridConfig, spectral_density, wigner_ville, wv_convergence
from .stability import (
    auto_certificate,
    commutative_route_check,
    eigen_bound_check,
    instantaneous_controllability,
    lambda_max_check,
    transfer_equivalence,
)
from .transition import _resolve_route, commutative_transition, ode_transition, peano_baker

__all__ = ["main", "dispatch"]

_RECORDED_WARNINGS = (TruncationWarning, TailMassWarning)


class _CliParser(argparse.ArgumentParser):
    """Argument parser whose usage errors are machine-readable JSON."""

    def error(self, message):
        sys.stderr.write(json.dumps({"error": message, "type": "usage"}) + "\n")
        raise SystemExit(2)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _spec(tp):
    """The %-format of a value type, as ``_fmt`` renders it; None for booleans and others."""
    if issubclass(tp, (bool, np.bool_)):
        return None
    if issubclass(tp, (int, np.integer)):
        return "%d"
    if issubclass(tp, (float, np.floating)):
        return "%.17g"
    return None


def _write_csv(rows, out):
    # One %-template per row layout formats a whole row at once; rows holding
    # booleans (or other types) go through _fmt value by value.
    templates = {}
    lines = []
    for row in rows:
        row = tuple(row)
        key = tuple(map(type, row))
        if key not in templates:
            specs = [_spec(tp) for tp in key]
            templates[key] = None if None in specs else ",".join(specs) + "\n"
        template = templates[key]
        lines.append(template % row if template else ",".join(map(_fmt, row)) + "\n")
    _write_text("".join(lines), out)


def _write_columns(columns, out):
    """The CSV that ``_write_csv(zip(*columns), out)`` writes, from 1-d columns.

    When every column is a float array, the whole table is formatted by one
    template from the columns' Python-float values.
    """
    columns = [np.asarray(c) for c in columns]
    if not all(c.dtype.kind == "f" for c in columns):
        return _write_csv(zip(*columns), out)
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    values = tuple(np.column_stack(columns).ravel().tolist())
    _write_text(template * len(columns[0]) % values, out)


def _write_json(obj, out):
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _write_text(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_manifest(subcommand, params, out, resolved, warned):
    argv = [subcommand]
    for key, val in params.items():
        if val is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        else:
            argv.extend([flag, _fmt(val) if isinstance(val, float) else str(val)])
    manifest = {
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "argv_resolved": argv,
        "warnings": warned,
    }
    if resolved is not None:
        manifest["resolved"] = resolved
    if out:
        Path(str(out) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(json.dumps({"manifest": manifest}, sort_keys=True) + "\n")
    return manifest


def _load_model(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"model: cannot read {path!r} ({exc})") from None
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"model: invalid JSON in {path!r} ({exc})") from None
    m = model_from_json(obj)
    if isinstance(m, CarmaModel):
        m = companion_from_carma(m)
    return m


def _finite_float(text):
    """Argparse type of every float flag: a finite number, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text, flag):
    """Comma-separated finite numbers; a PreconditionError naming ``flag`` otherwise."""
    try:
        vals = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        vals = None
    if not vals or not all(map(math.isfinite, vals)):
        raise PreconditionError(f"{flag}: expected comma-separated finite numbers, got {text!r}")
    return vals


def _parse_int_list(text, flag):
    try:
        vals = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise PreconditionError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    if not vals:
        raise PreconditionError(f"{flag}: empty list")
    return vals


def _parse_n(text):
    if text == "limit":
        return "limit"
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"N: expected a positive integer or 'limit', got {text!r}") from None


def _lambda_grid(lmax, dl):
    if lmax <= 0 or dl <= 0:
        raise PreconditionError("lmax and dl must be positive")
    n = _grid_steps(2.0 * lmax, dl, "lambda grid")
    return -lmax + dl * np.arange(n + 1)


def _resolved(config, **extra):
    """The u_max and certificate a spectral run used, plus ``extra`` entries."""
    cert = config.certificate
    if cert is not None:
        cert = {"route": cert.route, "gamma": float(cert.gamma), "lam": float(cert.lam),
                "window": [float(x) for x in cert.checked_window]}
    return {"umax": config.resolved_u_max(), "certificate": cert, **extra}


def _require_certificate(A, window, flag_hint):
    cert = auto_certificate(A, window)
    if not cert.passed:
        raise PreconditionError(
            f"no stability certificate found on window {window} ({cert.reason}); "
            f"pass {flag_hint} explicitly")
    return cert


def _cmd_simulate(args):
    m = _load_model(args.model)
    if args.t1 <= args.t0 or args.dt <= 0:
        raise PreconditionError("simulate: need t1 > t0 and dt > 0")
    n = _grid_steps(args.t1 - args.t0, args.dt, "simulate time grid")
    t_grid = args.t0 + args.dt * np.arange(n + 1)
    burn_in = args.burn_in
    if burn_in is None:
        cert = _require_certificate(m.A, (args.t0, args.t1), "--burn-in")
        burn_in = 12.0 / cert.lam
        wide = (args.t0 - burn_in / args.N, args.t1)
        cert2 = auto_certificate(m.A, wide)
        if cert2.passed:
            burn_in = 12.0 / cert2.lam
    ens = simulate_paths(m, args.N, t_grid, args.paths, seed=args.seed,
                         burn_in=burn_in, store_states=True)
    rows = []
    for i in range(ens.n_paths):
        for k, t in enumerate(ens.t_grid):
            rows.append([i, t, *ens.states[i, k], ens.observations[i, k]])
    _write_csv(rows, args.out)
    return {
        "model": args.model, "N": args.N, "t0": args.t0, "t1": args.t1,
        "dt": args.dt, "paths": args.paths, "seed": args.seed,
        "burn_in": float(burn_in), "out": args.out}, None


def _cmd_kernel(args):
    m = _load_model(args.model)
    n = _parse_n(args.N)
    umax = args.umax
    if umax is None:
        cert = _require_certificate(m.A, (args.t - 1.0, args.t), "--umax")
        umax = cert.default_u_max()
    grid = kernel_grid(m, n, args.t, u_max=umax, du=args.du)
    _write_columns((grid.u_grid, grid.values), args.out)
    return {
        "model": args.model, "t": args.t, "N": args.N, "umax": float(umax),
        "du": args.du, "out": args.out}, {"route": grid.route}


def _cmd_converge(args):
    m = _load_model(args.model)
    n_list = _parse_int_list(args.Ns, "Ns")
    umax = args.umax
    if umax is None:
        cert = _require_certificate(m.A, (args.t - 1.0, args.t), "--umax")
        umax = cert.default_u_max()
    report = convergence_diagnostic(m, args.t, n_list, umax, du=args.du)
    _write_csv(report.rows, args.out)
    return {
        "model": args.model, "t": args.t, "Ns": args.Ns, "umax": float(umax),
        "du": args.du, "out": args.out}, None


def _cmd_spectrum(args):
    m = _load_model(args.model)
    lam = _lambda_grid(args.lmax, args.dl)
    config = GridConfig(u_max=args.umax, du=args.du)
    if args.umax is None:
        config.certificate = _require_certificate(m.A, (args.t - 1.0, args.t), "--umax")
    spec = spectral_density(m, args.t, lam, config)
    _write_columns((spec.lambda_grid, spec.values), args.out)
    resolved = _resolved(config, transform=spec.route)
    return {
        "model": args.model, "t": args.t, "lmax": args.lmax, "dl": args.dl,
        "umax": args.umax, "du": args.du, "out": args.out}, resolved


def _wv_config(m, args):
    config = GridConfig(u_max=args.umax, du=args.du, s_max=args.smax, ds=args.ds)
    if args.umax is None or args.smax is None:
        config.certificate = _require_certificate(
            m.A, (args.t - 1.0, args.t), "--umax/--smax")
    return config


def _cmd_wigner(args):
    m = _load_model(args.model)
    lam = _lambda_grid(args.lmax, args.dl)
    config = _wv_config(m, args)
    wv = wigner_ville(m, args.N, args.t, lam, config)
    _write_columns((wv.lambda_grid, wv.values), args.out)
    resolved = _resolved(config, smax=config.resolved_s_max(), transform=wv.route)
    return {
        "model": args.model, "t": args.t, "N": args.N, "lmax": args.lmax,
        "dl": args.dl, "smax": args.smax, "ds": args.ds, "umax": args.umax,
        "du": args.du, "out": args.out}, resolved


def _cmd_wvconv(args):
    m = _load_model(args.model)
    lam = _lambda_grid(args.lmax, args.dl)
    n_list = _parse_int_list(args.Ns, "Ns")
    config = _wv_config(m, args)
    report = wv_convergence(m, args.t, lam, n_list, config)
    _write_csv(report.rows, args.out)
    resolved = _resolved(config, smax=config.resolved_s_max())
    return {
        "model": args.model, "t": args.t, "Ns": args.Ns, "lmax": args.lmax,
        "dl": args.dl, "smax": args.smax, "ds": args.ds, "umax": args.umax,
        "du": args.du, "out": args.out}, resolved


def _cmd_transition(args):
    m = _load_model(args.model)
    method = args.method
    if method == "auto":
        method = _resolve_route(m.A, (min(args.s0, args.s), max(args.s0, args.s)))
    if method == "pb":
        res = peano_baker(m.A, args.s0, args.s, tol=args.tol)
    elif method == "ode":
        res = ode_transition(m.A, args.s0, args.s, steps=args.steps)
    else:
        res = commutative_transition(m.A, args.s0, args.s)
    out_obj = {
        "matrix": [[float(v) for v in row] for row in res.value],
        "error_estimate": float(res.error_estimate),
        "method": res.method,
        "terms_or_steps": int(res.terms_or_steps),
    }
    _write_json(out_obj, args.out)
    return {
        "model": args.model, "s0": args.s0, "s": args.s, "method": args.method,
        "tol": args.tol, "steps": args.steps, "out": args.out}, None


def _cmd_stability(args):
    m = _load_model(args.model)
    window = _parse_float_list(args.window, "window")
    if len(window) != 2:
        raise PreconditionError(f"window: expected 'lo,hi', got {args.window!r}")
    lo, hi = window
    routes = {"auto": auto_certificate, "lambda_max": lambda_max_check,
              "eigen": eigen_bound_check, "comm": commutative_route_check}
    result = routes[args.route](m.A, (lo, hi))
    if result.passed:
        out_obj = {"passed": True, "route": result.route,
                   "gamma": result.gamma, "lam": result.lam,
                   "window": [lo, hi],
                   "details": {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                               for k, v in result.details.items()}}
    else:
        out_obj = {"passed": False, "route": result.route, "reason": result.reason,
                   "window": [lo, hi], "hint": result.hint,
                   "sup_lambda_max": result.sup_lambda_max}
    _write_json(out_obj, args.out)
    return {
        "model": args.model, "window": args.window, "route": args.route,
        "out": args.out}, None


def _cmd_control(args):
    m = _load_model(args.model)
    if args.tgrid is not None:
        t_grid = np.array(_parse_float_list(args.tgrid, "tgrid"))
    elif args.t is not None:
        t_grid = np.array([args.t])
    else:
        if args.t0 is None or args.t1 is None or args.dt is None:
            raise PreconditionError("control: pass --tgrid, --t, or all of --t0/--t1/--dt")
        if args.t1 < args.t0 or args.dt <= 0:
            raise PreconditionError("control: need t1 >= t0 and dt > 0")
        n = _grid_steps(args.t1 - args.t0, args.dt, "control time grid")
        t_grid = args.t0 + args.dt * np.arange(n + 1)
    report = instantaneous_controllability(m, t_grid)
    out_obj = {"t": [float(t) for t in report.t_grid],
               "ranks": report.ranks,
               "min_singular": report.min_singular,
               "full_rank": report.full_rank,
               "p": m.p}
    _write_json(out_obj, args.out)
    return {
        "model": args.model, "tgrid": args.tgrid, "t": args.t, "t0": args.t0,
        "t1": args.t1, "dt": args.dt, "out": args.out}, None


def _cmd_equiv(args):
    m1 = _load_model(args.model)
    m2 = _load_model(args.model2)
    if m1.p != m2.p:
        raise PreconditionError("equiv: models must share the state dimension p")
    report = transfer_equivalence(m1, m2, args.t)
    out_obj = {"equivalent": report.equivalent,
               "max_rel_error": report.max_rel_error,
               "n_used": report.n_used, "n_skipped": report.n_skipped,
               "note": report.note}
    _write_json(out_obj, args.out)
    return {
        "model": args.model, "model2": args.model2, "t": args.t,
        "out": args.out}, None


def _build_parser():
    parser = _CliParser(prog="tvls",
                        description="Time-varying Levy-driven state-space models")
    parser.add_argument("--version", action="version", version=f"tvls {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text, model_flags=("--model",)):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        sp.add_argument(*model_flags, dest="model", required=True,
                        help="model JSON file")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        return sp

    sp = add("simulate", _cmd_simulate, "simulate observation paths (CSV: path,t,X...,Y)")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--t0", type=_finite_float, required=True)
    sp.add_argument("--t1", type=_finite_float, required=True)
    sp.add_argument("--dt", type=_finite_float, required=True)
    sp.add_argument("--paths", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", dest="burn_in", type=_finite_float, default=None)

    sp = add("kernel", _cmd_kernel, "lag kernel on a grid (CSV: u,value)")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--N", required=True, help="positive integer or 'limit'")
    sp.add_argument("--umax", type=_finite_float, default=None)
    sp.add_argument("--du", type=_finite_float, default=0.005)

    sp = add("converge", _cmd_converge, "kernel convergence in N (CSV: N,distance)")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--Ns", required=True, help="comma-separated N values")
    sp.add_argument("--umax", type=_finite_float, default=None)
    sp.add_argument("--du", type=_finite_float, default=0.005)

    sp = add("spectrum", _cmd_spectrum, "limiting spectral density (CSV: lambda,f)")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--lmax", type=_finite_float, required=True)
    sp.add_argument("--dl", type=_finite_float, required=True)
    sp.add_argument("--umax", type=_finite_float, default=None)
    sp.add_argument("--du", type=_finite_float, default=0.005)

    sp = add("wigner", _cmd_wigner, "finite-N time-frequency spectrum (CSV: lambda,f_N)")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--lmax", type=_finite_float, required=True)
    sp.add_argument("--dl", type=_finite_float, required=True)
    sp.add_argument("--smax", type=_finite_float, default=None)
    sp.add_argument("--ds", type=_finite_float, default=0.05)
    sp.add_argument("--umax", type=_finite_float, default=None)
    sp.add_argument("--du", type=_finite_float, default=0.005)

    sp = add("wvconv", _cmd_wvconv, "spectrum convergence in N (CSV: N,distance)")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--Ns", required=True)
    sp.add_argument("--lmax", type=_finite_float, required=True)
    sp.add_argument("--dl", type=_finite_float, required=True)
    sp.add_argument("--smax", type=_finite_float, default=None)
    sp.add_argument("--ds", type=_finite_float, default=0.05)
    sp.add_argument("--umax", type=_finite_float, default=None)
    sp.add_argument("--du", type=_finite_float, default=0.005)

    sp = add("transition", _cmd_transition, "transition matrix (JSON)")
    sp.add_argument("--s0", type=_finite_float, required=True)
    sp.add_argument("--s", type=_finite_float, required=True)
    sp.add_argument("--method", default="auto", choices=["pb", "ode", "comm", "auto"])
    sp.add_argument("--tol", type=_finite_float, default=1e-12)
    sp.add_argument("--steps", type=int, default=256)

    sp = add("stability", _cmd_stability, "stability certificate (JSON)")
    sp.add_argument("--window", required=True, help="'lo,hi'")
    sp.add_argument("--route", default="auto", choices=["auto", "lambda_max", "eigen", "comm"])

    sp = add("control", _cmd_control, "instantaneous controllability (JSON)")
    sp.add_argument("--tgrid", default=None, help="comma-separated times")
    sp.add_argument("--t", type=_finite_float, default=None)
    sp.add_argument("--t0", type=_finite_float, default=None)
    sp.add_argument("--t1", type=_finite_float, default=None)
    sp.add_argument("--dt", type=_finite_float, default=None)

    sp = add("equiv", _cmd_equiv, "frozen-time transfer equivalence (JSON)",
             model_flags=("--model", "--model1"))
    sp.add_argument("--model2", required=True, help="second model JSON file")
    sp.add_argument("--t", type=_finite_float, required=True)

    return parser


def _manifest_warnings(caught):
    """Distinct tvls warnings, in order of first occurrence, for the manifest.

    Warnings of any other category are shown as they would have been.
    """
    warned = []
    for w in caught:
        if issubclass(w.category, _RECORDED_WARNINGS):
            entry = {"category": w.category.__name__, "message": str(w.message)}
            if entry not in warned:
                warned.append(entry)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return warned


def dispatch(argv):
    """Run one CLI invocation; returns the process exit code.

    Each subcommand returns its manifest parameters and resolved block; the
    manifest is written once the command has finished, with the truncation
    and tail-mass warnings it raised, so stderr carries JSON lines only.  A
    failing command reports those warnings in its error line instead; other
    warnings are shown whether the command succeeds or fails.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    warned, caught = [], []
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                for category in _RECORDED_WARNINGS:
                    warnings.simplefilter("always", category)
                params, resolved = args.fn(args)
        finally:
            warned = _manifest_warnings(caught)
        _emit_manifest(args.subcommand, params, args.out, resolved, warned)
        return 0
    except PreconditionError as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "type": type(exc).__name__, "warnings": warned}) + "\n")
        return 2
    except Exception as exc:  # internal errors: code 1, still machine-readable
        sys.stderr.write(json.dumps(
            {"error": f"{type(exc).__name__}: {exc}", "type": "internal",
             "warnings": warned}) + "\n")
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
