"""Command-line front end: every computation as a subcommand.

Outputs are plain CSV (UTF-8, \\n line endings, 17 significant digits,
`-inf` for the sentinel) or flat key=value records, always accompanied by a
`<output>.manifest.json` recording the subcommand, resolved parameters,
package version, and a sha256 of the output bytes.  Identical invocations
produce byte-identical outputs and therefore identical checksums.

Exit codes: 0 when the output was written and every value is finite or the
-inf sentinel, 1 for compute or input errors, 2 for usage errors.
"""

import argparse
import hashlib
import json
import math
import re
import sys

from . import __version__
from .discrete import (
    DiscreteLineParams,
    Orientation,
    build_scalar_kernel,
    discrete_line_decay,
    discrete_line_lamb,
    helix_cloud,
    line_cloud,
    oracle_spectrum,
    pair_cloud,
    ring_cloud,
    subradiant_fraction,
)
from .geomfit import estimate, fit_helix, load_emitters, with_density
from .spectra import (
    EmitterPhysics,
    HelixSpec,
    cylinder_table,
    kappa_grid,
    line_table,
    sweep,
    trapped_intervals,
)
from .thermal import ThermalConfig, thermal_sweep


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _assert_contracted(value):
    # NaN and +inf have no serialized meaning; only -inf is a sentinel
    if isinstance(value, float) and (math.isnan(value) or value == math.inf):
        raise ValueError(f"value {value!r} violates the finite-or-sentinel contract")


def _write_output(path, text, subcommand, params):
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "version": __version__,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _csv(header, rows):
    lines = [header]
    for row in rows:
        for v in row:
            _assert_contracted(v)
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_grid(text, parser, lists=True):
    """`min:max:step`, or a strictly ascending comma list where `lists` is set.

    Returns the grid nodes and the (min, max, step) triple, None for a list.
    """
    if ":" in text or not lists:
        parts = text.split(":")
        if len(parts) != 3:
            parser.error(f"grid must be min:max:step, got {text!r}")
        try:
            triple = tuple(float(p) for p in parts)
        except ValueError:
            parser.error(f"non-numeric grid bound in {text!r}")
        try:
            return kappa_grid(*triple), triple
        except ValueError as exc:
            parser.error(str(exc))
    vals = _parse_list(text, parser)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        parser.error("explicit grid values must be strictly ascending")
    return vals, None


def _parse_list(text, parser):
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        parser.error(f"non-numeric value in {text!r}")
    if not vals:
        parser.error("empty value list")
    return vals


def _physics(args):
    n0 = args.n0 if args.n0 is not None else 1.0 / args.lambda0
    return EmitterPhysics(gamma=args.gamma, lambda0=args.lambda0, n0=n0)


def _add_physics_flags(p):
    p.add_argument("--lambda0", type=float, default=280.0,
                   help="transition wavelength in nm (default 280)")
    p.add_argument("--gamma", type=float, default=0.514,
                   help="single-emitter decay rate in 1/ns (default 0.514)")
    p.add_argument("--n0", type=float, default=None,
                   help="line density in 1/nm (default 1/lambda0)")


def _add_output_flag(p):
    p.add_argument("--output", required=True, help="output file path")


def _table_rows(table):
    return [
        (p.kappa, p.gamma_norm, p.lamb_norm, p.gamma_over_gamma,
         p.classification.value)
        for p in table.points
    ]


def cmd_spectrum(args):
    parser = args.parser
    grid, _ = _parse_grid(args.kappa, parser)
    physics = _physics(args)
    if args.geometry == "line":
        if args.omega is not None or args.radius is not None or args.order is not None:
            parser.error("line takes no --omega/--radius/--order")
        table = line_table(grid, physics)
    elif args.geometry == "helix":
        if args.omega is None or args.radius is None:
            parser.error("helix requires --omega and --radius")
        if args.order is not None:
            parser.error("--order applies to cylinder only")
        spec = HelixSpec(Omega=args.omega, r=args.radius)
        table = sweep(grid, spec, physics, M=args.M)
    else:
        if args.radius is None:
            parser.error("cylinder requires --radius")
        if args.omega is not None:
            parser.error("--omega applies to helix only")
        table = cylinder_table(grid, args.order or 0, args.radius, physics)
    text = _csv("kappa,gamma_norm,lamb_norm,gamma_over_gamma,class",
                _table_rows(table))
    params = {
        "geometry": args.geometry, "kappa": args.kappa, "M": args.M,
        "omega": args.omega, "radius": args.radius, "order": args.order,
        "lambda0": physics.lambda0, "gamma": physics.gamma, "n0": physics.n0,
    }
    _write_output(args.output, text, "spectrum", params)
    return 0


def cmd_trapped(args):
    result = trapped_intervals(args.omega, args.kappa_max)
    payload = {
        "Omega": args.omega,
        "kappa_max": args.kappa_max,
        "intervals": [[lo, hi] for lo, hi in result.intervals],
        "fraction": result.fraction,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_output(args.output, text, "trapped",
                  {"omega": args.omega, "kappa_max": args.kappa_max})
    ivals = ", ".join(f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in result.intervals)
    print(f"trapped intervals: {ivals if ivals else '(none)'}")
    print(f"trapped fraction: {_fmt(result.fraction)}")
    return 0


def cmd_thermal(args):
    parser = args.parser
    _, (lo, hi, step) = _parse_grid(args.kappa, parser, lists=False)
    config = ThermalConfig(beta=args.beta, kappa_min=lo, kappa_max=hi,
                           kappa_step=step, M=args.M)
    physics = _physics(args)
    if args.series == "helix-fix-omega":
        if args.omega is None or args.r is None:
            parser.error("helix-fix-omega requires --omega (fixed) and --r (x list)")
        fixed = _parse_list(args.omega, parser)
        if len(fixed) != 1:
            parser.error("--omega must be a single value for helix-fix-omega")
        xs = _parse_list(args.r, parser)
        entries = [HelixSpec(Omega=fixed[0], r=x) for x in xs]
    elif args.series == "helix-fix-r":
        if args.omega is None or args.r is None:
            parser.error("helix-fix-r requires --r (fixed) and --omega (x list)")
        fixed = _parse_list(args.r, parser)
        if len(fixed) != 1:
            parser.error("--r must be a single value for helix-fix-r")
        xs = _parse_list(args.omega, parser)
        entries = [HelixSpec(Omega=x, r=fixed[0]) for x in xs]
    else:
        if args.r is None:
            parser.error("cylinder requires --r (x list)")
        if args.omega is not None:
            parser.error("--omega does not apply to the cylinder series")
        xs = _parse_list(args.r, parser)
        entries = list(xs)
    results = thermal_sweep(entries, physics, config)
    rows = [(x, res.gamma_th) for x, (_, res) in zip(xs, results)]
    text = _csv("x,gamma_th", rows)
    params = {
        "series": args.series, "omega": args.omega, "r": args.r,
        "beta": args.beta, "kappa": args.kappa, "M": args.M,
        "lambda0": physics.lambda0, "gamma": physics.gamma, "n0": physics.n0,
    }
    _write_output(args.output, text, "thermal", params)
    return 0


def cmd_discrete_line(args):
    parser = args.parser
    grid, _ = _parse_grid(args.kappa, parser)
    orientation = Orientation(args.orientation)
    k0d = 2.0 * math.pi * args.d_over_lambda
    params = DiscreteLineParams(k0d=k0d, orientation=orientation)
    rows = [
        (kappa, discrete_line_lamb(params, kappa), discrete_line_decay(params, kappa))
        for kappa in grid
    ]
    text = _csv("kappa,E_over_gamma,Gamma_over_gamma", rows)
    _write_output(args.output, text, "discrete-line", {
        "d_over_lambda": args.d_over_lambda, "orientation": args.orientation,
        "kappa": args.kappa,
    })
    return 0


def _build_cloud(args, parser):
    if args.cloud is not None:
        if args.generate is not None:
            parser.error("--cloud and --generate are mutually exclusive")
        return load_emitters(args.cloud)
    if args.generate is None:
        parser.error("one of --cloud or --generate is required")
    kind = args.generate
    if kind == "pair":
        if args.s is None:
            parser.error("pair requires --s (separation, nm)")
        return pair_cloud(args.s)
    if kind == "line":
        if args.n is None or args.s is None:
            parser.error("line requires --n (count) and --s (spacing, nm)")
        return line_cloud(args.n, args.s)
    if kind == "ring":
        if args.n is None or args.R is None:
            parser.error("ring requires --n (count) and --R (radius, nm)")
        return ring_cloud(args.n, args.R)
    if args.n is None or args.R is None or args.b is None:
        parser.error("helix requires --n, --R, and --b")
    return helix_cloud(args.n, args.R, args.b, spacing=args.spacing)


def cmd_oracle(args):
    parser = args.parser
    cloud = _build_cloud(args, parser)
    physics = _physics(args)
    spect = oracle_spectrum(build_scalar_kernel(cloud, physics))
    rows = [
        (j, ev.real, ev.imag, g, e)
        for j, (ev, g, e) in enumerate(
            zip(spect.eigenvalues, spect.gamma_j, spect.lamb_j))
    ]
    text = _csv("j,ev_re,ev_im,gamma_j,lamb_j", rows)
    params = {
        "cloud": args.cloud, "generate": args.generate, "n": args.n,
        "s": args.s, "R": args.R, "b": args.b, "spacing": args.spacing,
        "lambda0": physics.lambda0, "gamma": physics.gamma, "n0": physics.n0,
    }
    _write_output(args.output, text, "oracle", params)
    single = 2.0 * physics.gamma
    print(f"emitters: {cloud.count}")
    print(f"max Gamma_j / Gamma_single: {_fmt(float(spect.gamma_j.max()) / single)}")
    print(f"subradiant fraction: {_fmt(subradiant_fraction(spect, physics))}")
    return 0


def cmd_fit_estimate(args):
    physics = EmitterPhysics(gamma=args.gamma, lambda0=args.lambda0,
                             n0=1.0 / args.lambda0)
    fit = fit_helix(load_emitters(args.cloud))
    if args.override_n0 is not None:
        fit = with_density(fit, args.override_n0)
    report = estimate(fit, physics)
    pairs = [
        ("R_nm", fit.R),
        ("b_nm", fit.b),
        ("n0_per_nm", fit.n0),
        ("Omega", report.Omega),
        ("r", report.r),
        ("gamma_max_over_gamma", report.gamma_max_over_gamma),
        ("trapped_percent", report.trapped_percent),
        ("axis_x", float(fit.axis_direction[0])),
        ("axis_y", float(fit.axis_direction[1])),
        ("axis_z", float(fit.axis_direction[2])),
        ("phase_rad", fit.phase),
        ("handedness", fit.handedness.value),
        ("rms_residual_nm", fit.rms_residual),
    ]
    for _, v in pairs:
        _assert_contracted(v)
    text = "".join(f"{k}={_fmt(v)}\n" for k, v in pairs)
    _write_output(args.output, text, "fit-estimate", {
        "cloud": args.cloud, "lambda0": args.lambda0,
        "n0_override": args.override_n0,
    })
    sys.stdout.write(text)
    return 0


# let values like -2:2:0.01 or -1,-0.5,0 pass as flag arguments instead of
# being mistaken for option strings (no option here looks like a number)
_NEGATIVE_VALUE = re.compile(r"^-\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser():
    parser = _Parser(
        prog="helirad",
        description="collective decay rates and Lamb shifts of 1D emitter "
                    "geometries",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("spectrum", help="eigenvalue table over a kappa grid")
    p.add_argument("geometry", choices=["line", "helix", "cylinder"])
    p.add_argument("--kappa", required=True,
                   help="grid as min:max:step or comma list")
    p.add_argument("--omega", type=float, default=None, help="helix Omega")
    p.add_argument("--radius", type=float, default=None,
                   help="dimensionless radius r = k0 R")
    p.add_argument("--order", type=int, default=None, help="cylinder order n")
    p.add_argument("--M", type=int, default=10,
                   help="Lamb-shift truncation half-width (default 10)")
    _add_physics_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_spectrum, parser=p)

    p = sub.add_parser("trapped", help="trapped-state intervals for a helix")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--kappa-max", type=float, default=10.0, dest="kappa_max")
    _add_output_flag(p)
    p.set_defaults(func=cmd_trapped, parser=p)

    p = sub.add_parser("thermal", help="thermally averaged decay rates")
    p.add_argument("--series", required=True,
                   choices=["helix-fix-omega", "helix-fix-r", "cylinder"])
    p.add_argument("--omega", default=None,
                   help="fixed Omega or comma list, per series")
    p.add_argument("--r", default=None, help="fixed r or comma list, per series")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--kappa", default="0:5:0.01", help="grid as min:max:step")
    p.add_argument("--M", type=int, default=10)
    _add_physics_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_thermal, parser=p)

    p = sub.add_parser("discrete-line", help="discrete dipole line table")
    p.add_argument("--d-over-lambda", type=float, required=True,
                   dest="d_over_lambda", help="spacing d / lambda0")
    p.add_argument("--orientation", choices=["par", "perp"], required=True)
    p.add_argument("--kappa", required=True,
                   help="grid as min:max:step or comma list")
    _add_output_flag(p)
    p.set_defaults(func=cmd_discrete_line, parser=p)

    p = sub.add_parser("oracle", help="finite-N kernel eigenvalues")
    p.add_argument("--cloud", default=None, help="emitter cloud file")
    p.add_argument("--generate", choices=["pair", "line", "ring", "helix"],
                   default=None)
    p.add_argument("--n", type=int, default=None, help="emitter count")
    p.add_argument("--s", type=float, default=None, help="separation/spacing, nm")
    p.add_argument("--R", type=float, default=None, help="radius, nm")
    p.add_argument("--b", type=float, default=None, help="pitch, nm")
    p.add_argument("--spacing", type=float, default=1.0,
                   help="helix arc-length spacing, nm (default 1)")
    _add_physics_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_oracle, parser=p)

    p = sub.add_parser("fit-estimate",
                       help="fit a helix to a cloud and report estimates")
    p.add_argument("--cloud", required=True, help="emitter cloud file")
    p.add_argument("--n0", type=float, default=None, dest="override_n0",
                   help="override the fitted line density, 1/nm")
    p.add_argument("--lambda0", type=float, default=280.0)
    p.add_argument("--gamma", type=float, default=0.514)
    _add_output_flag(p)
    p.set_defaults(func=cmd_fit_estimate, parser=p)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
