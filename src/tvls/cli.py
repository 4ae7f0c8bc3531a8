"""Command-line interface.

Numeric tables go to CSV (no header rows, ``%.17g`` floats so values
round-trip bit-for-bit); reports go to JSON.  Every run emits a manifest
echoing the resolved parameters, library version, and seed: next to the
output file as ``<out>.manifest.json`` when ``--out`` is given, otherwise
as a single ``{"manifest": ...}`` line on stderr.  Re-running the argv
recorded in a manifest reproduces the output byte for byte.  Truncation and
tail-mass warnings are listed in the manifest's ``warnings`` entry instead of
being printed; a failing run lists them in its error JSON.

Each subcommand is one entry of ``_COMMANDS`` (handler, help text, flags),
and each flag is declared once in ``_FLAGS``.

Exit codes: 0 on success, 2 when inputs fail a precondition (a JSON object
naming the problem is printed to stderr), 1 on internal errors.
"""

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PreconditionError, TailMassWarning, TruncationWarning
from .kernels import convergence_diagnostic, kernel_grid
from .model import CarmaModel, companion_from_carma, model_from_json
from .quadrature import _grid_steps
from .simulate import _build_steps, simulate_paths
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


# A number or a comma list of numbers.  argparse reads a token that starts
# with "-" as a flag unless its negative-number matcher accepts the token,
# and its own matcher refuses -1e-5 and -1,0.
_NUMBER = r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf(?:inity)?|nan)"
_NUMBERS = re.compile(rf"{_NUMBER}(?:,{_NUMBER})*\Z", re.IGNORECASE)


class _CliParser(argparse.ArgumentParser):
    """Argument parser whose usage errors are machine-readable JSON.

    A token that is a number or a comma list of numbers is a value, also
    when it starts with "-".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NUMBERS

    def error(self, message):
        sys.stderr.write(json.dumps({"error": message, "type": "usage"}) + "\n")
        raise SystemExit(2)


def _flag(name):
    return "--" + name.replace("_", "-")


def _write_columns(columns, out):
    """Headerless CSV of equal-length 1-d columns, one row per index.

    Float columns are formatted ``%.17g`` (values round-trip bit for bit),
    all others ``%d``; the whole table is formatted by one template.
    """
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
    # An object table keeps each column's values as Python ints or floats.
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, c in enumerate(columns):
        table[:, j] = c
    _write_text(template * len(table) % tuple(table.ravel().tolist()), out)


def _write_json(obj, out):
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _write_text(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_manifest(subcommand, params, replayed, out, resolved, warned):
    argv = [subcommand]
    for key, val in replayed.items():
        if val is not None:
            argv += [_flag(key), "%.17g" % val if isinstance(val, float) else str(val)]
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
        _write_json(manifest, str(out) + ".manifest.json")
    else:
        sys.stderr.write(json.dumps({"manifest": manifest}, sort_keys=True) + "\n")


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


def _certificate_record(cert):
    """A certificate's route, gamma, lambda and window, or None for no certificate."""
    if cert is None:
        return None
    return {"route": cert.route, "gamma": float(cert.gamma), "lam": float(cert.lam),
            "window": [float(x) for x in cert.checked_window]}


def _resolved(config, **extra):
    """The u_max and certificate a spectral run used, plus ``extra`` entries."""
    return {"umax": config.resolved_u_max(),
            "certificate": _certificate_record(config.certificate), **extra}


def _certificate(m, args):
    """The stability certificate a subcommand's unset size flags default from.

    ``--umax``/``--smax`` default from a certificate on (t - 1, t).
    ``--burn-in`` defaults from one on (t0, t1), or on that window widened
    by the burn-in it gives when a route certifies the wider one too.  None
    when every such flag was given.
    """
    flags = [f for f in ("umax", "smax", "burn_in") if f in vars(args)]
    if all(getattr(args, f) is not None for f in flags):
        return None
    window = (args.t0, args.t1) if "burn_in" in flags else (args.t - 1.0, args.t)
    cert = auto_certificate(m.A, window)
    if not cert.passed:
        raise PreconditionError(
            f"no stability certificate found on window {window} ({cert.reason}); "
            f"pass {'/'.join(map(_flag, flags))} explicitly")
    if "burn_in" in flags:
        wide = auto_certificate(m.A, (args.t0 - 12.0 / cert.lam / args.N, args.t1))
        cert = wide if wide.passed else cert
    return cert


def _cmd_simulate(args):
    m = _load_model(args.model)
    if args.t1 <= args.t0 or args.dt <= 0:
        raise PreconditionError("simulate: need t1 > t0 and dt > 0")
    n = _grid_steps(args.t1 - args.t0, args.dt, "simulate time grid")
    t_grid = args.t0 + args.dt * np.arange(n + 1)
    cert = _certificate(m, args)
    ens = simulate_paths(m, args.N, t_grid, args.paths, seed=args.seed,
                         certificate=cert, burn_in=args.burn_in, store_states=True)
    n_grid = len(ens.t_grid)
    _write_columns((np.repeat(np.arange(ens.n_paths), n_grid), np.tile(ens.t_grid, ens.n_paths),
                    *ens.states.reshape(-1, m.p).T, ens.observations.ravel()), args.out)
    _, mids, _, obs_idx = _build_steps(m, ens.N, t_grid, ens.burn_in)
    return {"burn_in": ens.burn_in}, {
        "certificate": _certificate_record(cert), "burn_in": ens.burn_in,
        "burn_in_substeps": obs_idx[0], "substeps": len(mids)}


def _cmd_kernel(args):
    m = _load_model(args.model)
    n = _parse_n(args.N)
    umax = GridConfig(u_max=args.umax, certificate=_certificate(m, args)).resolved_u_max()
    grid = kernel_grid(m, n, args.t, u_max=umax, du=args.du)
    _write_columns((grid.u_grid, grid.values), args.out)
    return {"umax": umax}, {"route": grid.route}


def _cmd_converge(args):
    m = _load_model(args.model)
    n_list = _parse_int_list(args.Ns, "Ns")
    umax = GridConfig(u_max=args.umax, certificate=_certificate(m, args)).resolved_u_max()
    report = convergence_diagnostic(m, args.t, n_list, umax, du=args.du)
    _write_columns(zip(*report.rows), args.out)
    return {"umax": umax}, None


def _cmd_spectrum(args):
    m = _load_model(args.model)
    lam = _lambda_grid(args.lmax, args.dl)
    config = GridConfig(u_max=args.umax, du=args.du, certificate=_certificate(m, args))
    spec = spectral_density(m, args.t, lam, config)
    _write_columns((spec.lambda_grid, spec.values), args.out)
    return {}, _resolved(config, transform=spec.route)


def _cmd_wigner(args):
    m = _load_model(args.model)
    lam = _lambda_grid(args.lmax, args.dl)
    config = GridConfig(args.umax, args.du, args.smax, args.ds, _certificate(m, args))
    wv = wigner_ville(m, args.N, args.t, lam, config)
    _write_columns((wv.lambda_grid, wv.values), args.out)
    return {}, _resolved(config, smax=config.resolved_s_max(), transform=wv.route)


def _cmd_wvconv(args):
    m = _load_model(args.model)
    lam = _lambda_grid(args.lmax, args.dl)
    n_list = _parse_int_list(args.Ns, "Ns")
    config = GridConfig(args.umax, args.du, args.smax, args.ds, _certificate(m, args))
    report = wv_convergence(m, args.t, lam, n_list, config)
    _write_columns(zip(*report.rows), args.out)
    return {}, _resolved(config, smax=config.resolved_s_max())


# The routes of ``transition --method``; "auto" takes the one _resolve_route picks.
_TRANSITION_METHODS = {
    "pb": lambda A, args: peano_baker(A, args.s0, args.s, tol=args.tol),
    "ode": lambda A, args: ode_transition(A, args.s0, args.s, steps=args.steps),
    "comm": lambda A, args: commutative_transition(A, args.s0, args.s),
    "auto": lambda A, args: _TRANSITION_METHODS[
        _resolve_route(A, (min(args.s0, args.s), max(args.s0, args.s)))](A, args),
}


def _cmd_transition(args):
    m = _load_model(args.model)
    res = _TRANSITION_METHODS[args.method](m.A, args)
    out_obj = {
        "matrix": [[float(v) for v in row] for row in res.value],
        "error_estimate": float(res.error_estimate),
        "method": res.method,
        "terms_or_steps": int(res.terms_or_steps),
    }
    _write_json(out_obj, args.out)


# The certificate routes of ``stability --route``, by function name.
_STABILITY_ROUTES = {"auto": "auto_certificate", "lambda_max": "lambda_max_check",
                     "eigen": "eigen_bound_check", "comm": "commutative_route_check"}


def _cmd_stability(args):
    m = _load_model(args.model)
    window = _parse_float_list(args.window, "window")
    if len(window) != 2:
        raise PreconditionError(f"window: expected 'lo,hi', got {args.window!r}")
    lo, hi = window
    result = globals()[_STABILITY_ROUTES[args.route]](m.A, (lo, hi))
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


def _cmd_equiv(args):
    m1 = _load_model(args.model)
    m2 = _load_model(args.model2)
    if m1.p != m2.p:
        raise PreconditionError("equiv: models must share the state dimension p")
    _write_json(dataclasses.asdict(transfer_equivalence(m1, m2, args.t)), args.out)


_FLOAT = {"type": _finite_float, "required": True}
_OPTIONAL_FLOAT = {"type": _finite_float, "default": None}

# The add_argument keywords of each flag, by name; its dest is the name.
_FLAGS = {
    "t": _FLOAT,
    "N": {"type": int, "required": True},
    "Ns": {"required": True, "help": "comma-separated N values"},
    "lmax": _FLOAT,
    "dl": _FLOAT,
    "smax": _OPTIONAL_FLOAT,
    "ds": {"type": _finite_float, "default": 0.05},
    "umax": _OPTIONAL_FLOAT,
    "du": {"type": _finite_float, "default": 0.005},
    "t0": _FLOAT,
    "t1": _FLOAT,
    "dt": _FLOAT,
    "paths": {"type": int, "default": 1},
    "seed": {"type": int, "default": 0},
    "burn_in": _OPTIONAL_FLOAT,
    "s0": _FLOAT,
    "s": _FLOAT,
    "method": {"default": "auto", "choices": _TRANSITION_METHODS},
    "tol": {"type": _finite_float, "default": 1e-12},
    "steps": {"type": int, "default": 256},
    "window": {"required": True, "help": "'lo,hi'"},
    "route": {"default": "auto", "choices": _STABILITY_ROUTES},
    "tgrid": {"default": None, "help": "comma-separated times"},
    "model2": {"required": True, "help": "second model JSON file"},
}


def _flag_specs(flags):
    """{name: add_argument keywords} of a subcommand's flags, in order."""
    return dict((f, _FLAGS[f]) if isinstance(f, str) else f for f in flags)


# Each subcommand's handler (by name), help text and flags.  A flag is a name
# in _FLAGS, or a (name, keywords) pair for a form only this subcommand
# takes.  Every subcommand also takes --model (a model JSON file) and --out.
_COMMANDS = {
    "simulate": ("_cmd_simulate", "simulate observation paths (CSV: path,t,X...,Y)",
                 ("N", "t0", "t1", "dt", "paths", "seed", "burn_in")),
    "kernel": ("_cmd_kernel", "lag kernel on a grid (CSV: u,value)",
               ("t", ("N", {"required": True, "help": "positive integer or 'limit'"}),
                "umax", "du")),
    "converge": ("_cmd_converge", "kernel convergence in N (CSV: N,distance)",
                 ("t", "Ns", "umax", "du")),
    "spectrum": ("_cmd_spectrum", "limiting spectral density (CSV: lambda,f)",
                 ("t", "lmax", "dl", "umax", "du")),
    "wigner": ("_cmd_wigner", "finite-N time-frequency spectrum (CSV: lambda,f_N)",
               ("t", "N", "lmax", "dl", "smax", "ds", "umax", "du")),
    "wvconv": ("_cmd_wvconv", "spectrum convergence in N (CSV: N,distance)",
               ("t", "Ns", "lmax", "dl", "smax", "ds", "umax", "du")),
    "transition": ("_cmd_transition", "transition matrix (JSON)",
                   ("s0", "s", "method", "tol", "steps")),
    "stability": ("_cmd_stability", "stability certificate (JSON)", ("window", "route")),
    "control": ("_cmd_control", "instantaneous controllability (JSON)",
                ("tgrid", ("t", _OPTIONAL_FLOAT), ("t0", _OPTIONAL_FLOAT),
                 ("t1", _OPTIONAL_FLOAT), ("dt", _OPTIONAL_FLOAT))),
    "equiv": ("_cmd_equiv", "frozen-time transfer equivalence (JSON)", ("model2", "t")),
}


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser of the subcommand table, built once per process."""
    parser = _CliParser(prog="tvls",
                        description="Time-varying Levy-driven state-space models")
    parser.add_argument("--version", action="version", version=f"tvls {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        model_flags = ("--model", "--model1") if name == "equiv" else ("--model",)
        sp.add_argument(*model_flags, dest="model", required=True, help="model JSON file")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        for flag, spec in _flag_specs(flags).items():
            sp.add_argument(_flag(flag), **spec)
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

    A handler returns the values it derived (pinned into the manifest's
    parameters) and the manifest's resolved block, or None for neither.
    ``argv_resolved`` passes the pinned values that the resolved block does
    not record; a replay derives the others again, as the run did.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _, flags = _COMMANDS[args.subcommand]
    warned, caught = [], []
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                for category in _RECORDED_WARNINGS:
                    warnings.simplefilter("always", category)
                pinned, resolved = globals()[handler](args) or ({}, None)
        finally:
            warned = _manifest_warnings(caught)
        params = {name: getattr(args, name) for name in ["model", *_flag_specs(flags), "out"]}
        replayed = {**params, **{k: v for k, v in pinned.items() if k not in (resolved or {})}}
        params.update(pinned)
        _emit_manifest(args.subcommand, params, replayed, args.out, resolved, warned)
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
