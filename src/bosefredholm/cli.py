"""Command-line interface: correlator scans, static/boundary evaluators,
validation suites, and machine-readable CSV/JSON output.

Exit codes: 0 success, 1 configuration error or a computation error
outside a scan point, 2 flagged scan points or a convergence failure
(partial results still written, flagged), 3 output could not be written.
"""

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from .errors import BoseFredholmError, ConvergenceFailure
from .fredholm import thermal_cut
from .kernels import (
    DIRICHLET,
    GeometryParams,
    NEUMANN,
    ThermalParams,
    kernel_K_static,
    kernel_L,
    kernel_theta,
    kernel_V,
    kernel_W,
)
from .correlators import (
    PhysicalPoint,
    boundary_w_det,
    correlation_boundary_neumann,
    correlation_ground,
    correlation_static,
    correlation_thermal,
    density_of_temperature,
)
from .special_integrals import RegularizationPolicy

CSV_HEADER = ("x1,x2,t,T,h,D,eps,value_re,value_im,det_re,det_im,deriv_re,deriv_im,"
              "err,n,n_spectral,truncation,deltas,flag,runtime_ms")


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class OutputError(BoseFredholmError):
    """The output could not be written; the only error that maps to exit code 3."""


def _fmt(x, digits):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.{digits}g}"


def parse_range(text):
    """Scalar or 'start:stop:count' linspace triple."""
    parts = str(text).split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) == 3:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise CliError(f"range count must be >= 1 in {text!r}")
        return list(np.linspace(start, stop, count))
    raise CliError(f"cannot parse range {text!r} (want scalar or start:stop:count)")


def _eps_kind(eps):
    if eps in ("+", "+1", "1", "neumann"):
        return NEUMANN
    if eps in ("-", "-1", "dirichlet"):
        return DIRICHLET
    raise CliError(f"unknown boundary kind {eps!r}")


def _write_output(text, path):
    """Write text to the file at path, or to stdout when path is empty."""
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def emit(records, fmt, path, digits=15):
    """Write records as CSV (fixed header) or a strict JSON array.

    Non-finite floats are `nan` in CSV and `null` in JSON.
    """
    if not records:
        raise CliError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            fields = []
            for key in CSV_HEADER.split(","):
                v = r[key]
                fields.append(_fmt(v, digits) if isinstance(v, float) else str(v))
            lines.append(",".join(fields))
        text = "\n".join(lines) + "\n"
    else:
        cooked = []
        for r in records:
            c = {}
            for k, v in r.items():
                if isinstance(v, float):
                    v = float(_fmt(v, digits)) if math.isfinite(v) else None
                c[k] = v
            cooked.append(c)
        text = json.dumps(cooked, indent=1, allow_nan=False) + "\n"
    _write_output(text, path)


def _error_flag(exc):
    """Record flag of a per-point error: its kind, e.g. 'degenerate-delta'."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _point_record(point, n, flag, compute, n_spectral=""):
    """(record, error) of one scan point.

    compute() returns (value, det, deriv, err, n, truncation).  A package
    error of the point becomes a record of NaNs flagged with its kind, and
    is returned beside it; the scan goes on.  n_spectral is the spectral
    node count of a command that has a spectral grid, else empty.
    """
    start = time.perf_counter()
    try:
        value, det, deriv, err, n, trunc = compute()
        exc = None
    except OutputError:
        raise
    except BoseFredholmError as caught:
        value = det = deriv = err = float("nan")
        trunc, flag, exc = 0.0, _error_flag(caught), caught
    ms = 1000.0 * (time.perf_counter() - start)
    return {
        "x1": point[0], "x2": point[1], "t": point[2], "T": point[3],
        "h": point[4], "D": point[5], "eps": point[6],
        "value_re": float(np.real(value)), "value_im": float(np.imag(value)),
        "det_re": float(np.real(det)), "det_im": float(np.imag(det)),
        "deriv_re": float(np.real(deriv)), "deriv_im": float(np.imag(deriv)),
        "err": err, "n": n, "n_spectral": n_spectral, "truncation": trunc,
        # the damping schedule the command ran: no record command runs one
        "deltas": "",
        "flag": flag, "runtime_ms": ms,
    }, exc


def _finish_scan(results, args):
    """Emit the records of a scan; exit code 2 when a point was flagged."""
    for rec, exc in results:
        if exc is not None:
            print(f"flagged {rec['flag']} at x1={rec['x1']:g} x2={rec['x2']:g} t={rec['t']:g} "
                  f"T={rec['T']:g} h={rec['h']:g}: {exc}", file=sys.stderr)
    emit([rec for rec, _ in results], args.format, args.output, args.digits)
    return 2 if any(exc is not None for _, exc in results) else 0


def _one_correlate(point, n, tol):
    x1, x2, t, T, h, D, eps = point
    kind = _eps_kind(eps)
    flag = "dirichlet-null" if kind is DIRICHLET and x1 == 0.0 else ""
    pt = PhysicalPoint(x1, x2, t, kind, ThermalParams(h=h, T=T), D=D)

    def compute():
        if T > 0:
            res = correlation_thermal(pt, n=n, tol=tol)
        else:
            res = correlation_ground(pt, n=n)
        return (res.value, res.det_part, res.derivative_part, res.error_estimate,
                res.grid_size, res.truncation)

    return _point_record((x1, x2, t, T, h, D, eps), n, flag, compute)


def _scan_points(args):
    points = []
    for x1 in parse_range(args.x1):
        for x2 in parse_range(args.x2):
            for t in parse_range(args.t):
                points.append((x1, x2, t, args.T, args.h, args.D, args.eps))
    return points


def cmd_correlate(args):
    results = [_one_correlate(p, args.n, args.tol) for p in _scan_points(args)]
    return _finish_scan(results, args)


def _value_only(value, n, truncation=0.0):
    """compute() parts of a command that reports a value and nothing else."""
    return value, float("nan"), float("nan"), float("nan"), n, truncation


def cmd_static(args):
    results = []
    kind = _eps_kind(args.eps)
    thermal = ThermalParams(h=args.h, T=args.T)
    for x1 in parse_range(args.x1):
        for x2 in parse_range(args.x2):
            flag = "dirichlet-null" if (kind is DIRICHLET and x1 == 0.0) else ""
            results.append(_point_record(
                (x1, x2, 0.0, args.T, args.h, 0.0, args.eps), args.n, flag,
                lambda: _value_only(correlation_static(x1, x2, kind, thermal, n=args.n), args.n)))
    return _finish_scan(results, args)


def cmd_boundary(args):
    results = []
    thermal = ThermalParams(h=args.h, T=args.T)
    # at T > 0 both grids, the half line of W and the spectral line of b,
    # are cut at thermal_cut(h, T); at T = 0 they are the finite Fermi sea
    trunc = thermal_cut(thermal.h, thermal.T) if thermal.T > 0 else 0.0
    n_spectral = args.n_spectral or args.n
    for x in parse_range(args.x):
        w_det = None
        for t in parse_range(args.t):
            pt = PhysicalPoint(0.0, x, t, NEUMANN, thermal, D=args.D)

            def compute():
                nonlocal w_det
                if w_det is None:
                    w_det = boundary_w_det(x, t, pt, n=args.n)
                return _value_only(correlation_boundary_neumann(
                    x, t, pt, n=args.n, n_spectral=n_spectral, w_det=w_det), args.n, trunc)

            results.append(_point_record((0.0, x, t, args.T, args.h, args.D, "+"), args.n, "",
                                         compute, n_spectral))
    return _finish_scan(results, args)


def cmd_density(args):
    results = []
    for T in parse_range(args.T):
        for h in parse_range(args.h):
            thermal = ThermalParams(h=h, T=T)    # an invalid one is a configuration error

            def compute():
                return _value_only(density_of_temperature(thermal, n=args.n), args.n)

            rec, exc = _point_record((0.0, 0.0, 0.0, T, h, float("nan"), "+"), args.n, "",
                                     compute)
            rec["D"] = rec["value_re"]      # the density is the record's D, too
            results.append((rec, exc))
    return _finish_scan(results, args)


def cmd_kernel_dump(args):
    kind = _eps_kind(args.eps)
    thermal = ThermalParams(h=args.h, T=args.T)
    geom = GeometryParams(args.x1, args.x2, args.t)
    kernels = {
        "L": lambda a, b: kernel_L(a, b, geom),
        "V": lambda a, b: kernel_V(a, b, kind, geom),
        "W": lambda a, b: kernel_W(a, b, args.x2),
        "theta": lambda a, b: kernel_theta(a, b, kind, thermal),
        "K": lambda a, b: kernel_K_static(a, b, kind, math.pi * args.D),
    }
    grid = np.linspace(args.a, args.b, args.n)
    mat = np.asarray(kernels[args.kernel](grid[:, None], grid[None, :]), dtype=complex)
    rows = ["i,j,lam,mu,re,im"]
    for (i, j), v in np.ndenumerate(mat):
        rows.append(f"{i},{j},{_fmt(grid[i], args.digits)},{_fmt(grid[j], args.digits)},"
                    f"{_fmt(v.real, args.digits)},{_fmt(v.imag, args.digits)}")
    _write_output("\n".join(rows) + "\n", args.output)
    return 0


def cmd_lax_check(args):
    from .nls_system import FourPointConfig, lax_check

    thermal = ThermalParams(h=args.h, T=args.T)
    pt = PhysicalPoint(0.5, 0.5, 0.0, NEUMANN, thermal, D=args.D if args.T == 0 else 0.0)
    cfg = FourPointConfig(y=tuple(args.y), t=tuple(args.tt))
    policy = RegularizationPolicy(damping=args.damping, extrapolation_orders=args.orders)
    # the final b and the Lax residuals at step and step/2, from one walk
    # through both stencils
    mats, stencil, (res_big, res_small) = lax_check(cfg, pt, (args.step, args.step / 2.0),
                                                    args.n, policy)
    payload = {
        "config": {"y": list(args.y), "t": list(args.tt), "T": args.T, "h": args.h, "D": args.D},
        "step": args.step,
        "residual_step": np.max(res_big),
        "residual_half_step": np.max(res_small),
        "ratio": float(np.max(res_big) / max(np.max(res_small), 1e-300)),
        "residual_matrix_step": res_big.tolist(),
        "b_re": np.real(mats.b).tolist(),
        "b_im": np.imag(mats.b).tolist(),
        # the line grids the numbers above came from: the one shared by every
        # stencil build_b, and the one of the final b under adapt_policy
        # (0 nodes and no deltas when b is taken in closed form)
        "line_grids": {
            "stencil": {"nodes": len(stencil.nodes), "deltas": list(stencil.deltas)},
            "final": {"nodes": mats.line_nodes, "deltas": list(mats.deltas)},
        },
    }
    _write_output(json.dumps(payload, indent=1) + "\n", args.output)
    return 0


def cmd_suite(args):
    """JSON report of a check suite: validate --suite fast|all, oracle [--full]."""
    from .validate import run_suite

    report = run_suite("oracle-full" if args.full else args.suite)
    payload = {"suite": args.suite, "checks": report,
               "passed": all(c["passed"] for c in report)}
    _write_output(json.dumps(payload, indent=1) + "\n", args.output)
    return 0 if payload["passed"] else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _add_n(sub, default=64):
    sub.add_argument("--n", type=int, default=default, help="quadrature nodes")


def _add_policy(sub, note=""):
    sub.add_argument("--damping", type=float, default=RegularizationPolicy.damping,
                     help="largest damping delta" + note)
    sub.add_argument("--orders", type=int, default=RegularizationPolicy.extrapolation_orders,
                     help="number of damping halvings" + note)


def _add_output(sub):
    sub.add_argument("--output", default="", help="output path (default stdout)")


def _add_digits(sub):
    sub.add_argument("--digits", type=int, default=15, help="significant digits")


def _add_records(sub):
    """Output flags of the commands that emit correlator records."""
    _add_output(sub)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_digits(sub)


def make_parser():
    parser = _Parser(prog="bosefredholm",
                     description="Impenetrable Bose gas wall correlators")
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("correlate", help="dynamical correlator scan")
    c.add_argument("--eps", required=True)
    c.add_argument("--x1", required=True)
    c.add_argument("--x2", required=True)
    c.add_argument("--t", required=True)
    c.add_argument("--T", type=float, default=0.0)
    c.add_argument("--h", type=float, default=1.0)
    c.add_argument("--D", type=float, default=0.0)
    _add_n(c)
    c.add_argument("--tol", type=float, default=1e-14, help="truncation tolerance")
    _add_records(c)
    c.set_defaults(func=cmd_correlate)

    s = subs.add_parser("static", help="equal-time correlator (first minor)")
    s.add_argument("--eps", required=True)
    s.add_argument("--x1", required=True)
    s.add_argument("--x2", required=True)
    s.add_argument("--T", type=float, default=0.0)
    s.add_argument("--h", type=float, default=1.0)
    _add_n(s)
    _add_records(s)
    s.set_defaults(func=cmd_static)

    b = subs.add_parser("boundary", help="x1=0 Neumann route via the b matrix")
    b.add_argument("--x", required=True)
    b.add_argument("--t", required=True)
    b.add_argument("--T", type=float, default=0.0)
    b.add_argument("--h", type=float, default=1.0)
    b.add_argument("--D", type=float, default=0.0)
    b.add_argument("--n-spectral", type=int, default=None,
                   help="spectral nodes of b (default: --n)")
    _add_n(b)
    # accepted for existing scripts; the x1=0 route integrates in closed form
    _add_policy(b, note=" (no effect: the x1=0 route runs no damping)")
    _add_records(b)
    b.set_defaults(func=cmd_boundary)

    d = subs.add_parser("density", help="density D(T)")
    d.add_argument("--T", required=True)
    d.add_argument("--h", required=True)
    _add_n(d, default=400)
    _add_records(d)
    d.set_defaults(func=cmd_density)

    k = subs.add_parser("kernel-dump", help="dump a kernel matrix to CSV")
    k.add_argument("--kernel", required=True, choices=("L", "V", "W", "theta", "K"))
    k.add_argument("--eps", default="+")
    k.add_argument("--x1", type=float, default=0.3)
    k.add_argument("--x2", type=float, default=0.9)
    k.add_argument("--t", type=float, default=0.0)
    k.add_argument("--T", type=float, default=0.5)
    k.add_argument("--h", type=float, default=1.0)
    k.add_argument("--D", type=float, default=1.0)
    k.add_argument("--a", type=float, default=0.0)
    k.add_argument("--b", type=float, default=3.0)
    _add_n(k, default=16)
    _add_output(k)
    _add_digits(k)
    k.set_defaults(func=cmd_kernel_dump)

    o = subs.add_parser("oracle", help="finite-size oracle checks (JSON report)")
    o.add_argument("--full", action="store_true")
    _add_output(o)
    o.set_defaults(func=cmd_suite, suite="oracle")

    x = subs.add_parser("lax-check", help="Lax compatibility residuals")
    x.add_argument("--y", type=float, nargs=4, default=(0.15, 0.45, -0.35, 0.8))
    x.add_argument("--tt", type=float, nargs=4, default=(0.1, 0.32, -0.2, 0.55))
    x.add_argument("--step", type=float, default=2e-3)
    x.add_argument("--T", type=float, default=0.0)
    x.add_argument("--h", type=float, default=1.0)
    x.add_argument("--D", type=float, default=0.7)
    _add_n(x, default=16)
    _add_policy(x)
    _add_output(x)
    x.set_defaults(func=cmd_lax_check)

    v = subs.add_parser("validate", help="invariant suite (JSON report)")
    v.add_argument("--suite", default="fast", choices=("fast", "all"))
    _add_output(v)
    v.set_defaults(func=cmd_suite, full=False)
    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return make_parser()


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailure as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (BoseFredholmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
