"""Command-line front end: every computation as a subcommand.

Outputs are plain CSV (UTF-8, \\n line endings, 17 significant digits,
`-inf` for the sentinel) or flat key=value records, always accompanied by a
`<output>.manifest.json` recording the subcommand, the flags at the values
the run used (_write_output), the package version, and a sha256 of the
output bytes.  Identical invocations produce byte-identical outputs
and therefore identical checksums.

Exit codes: 0 when the output was written and every value is finite or the
-inf sentinel, 1 for compute or input errors, 2 for usage errors.
"""

import argparse
import hashlib
import json
import math
import re
import sys
import warnings

from . import __version__
from .discrete import (
    DiscreteLineParams,
    Orientation,
    _chain_decay,
    _chain_lamb,
    check_oracle_size,
    cloud_spectrum,
    helix_cloud,
    line_cloud,
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


# namespace entries that name the run rather than being one of its flags
_NOT_PARAMS = ("func", "parser", "output", "subcommand")


def _write_output(args, text, **record):
    """Write text to args.output and its manifest; record adds deterministic run facts.

    The manifest's params are the namespace the run used: each flag at the
    value it ran with, None where its mode does not read it (_check_flags).
    """
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    data = text.encode("utf-8")
    with open(args.output, "wb") as fh:
        fh.write(data)
    manifest = {
        "subcommand": args.subcommand,
        "params": params,
        "version": __version__,
        "sha256": hashlib.sha256(data).hexdigest(),
        **record,
    }
    with open(args.output + ".manifest.json", "w", encoding="utf-8") as fh:
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


def _physics(args, n0):
    gamma = getattr(args, "gamma", 0.514)  # no byte of spectrum or fit-estimate reads it
    if n0 is None:  # 1/lambda0, once EmitterPhysics has checked lambda0
        n0 = 1.0 / EmitterPhysics(gamma=gamma, lambda0=args.lambda0, n0=1.0).lambda0
    return EmitterPhysics(gamma=gamma, lambda0=args.lambda0, n0=n0)


def _add_lambda0_flag(p):
    p.add_argument("--lambda0", type=float, default=280.0,
                   help="transition wavelength in nm (default 280)")


def _add_output_flag(p):
    p.add_argument("--output", required=True, help="output file path")


# Per subcommand: the flag that picks the mode (None stands for --cloud), and
# per mode the flags that mode reads, in the order its code takes them.
_MODES = {
    "spectrum": ("geometry", {"line": (), "helix": ("omega", "radius", "M"),
                              "cylinder": ("order", "radius")}),
    "thermal": ("series", {"helix-fix-omega": ("omega", "r", "M"),
                           "helix-fix-r": ("r", "omega", "M"), "cylinder": ("r",)}),
    "oracle": ("generate", {"pair": ("s",), "line": ("n", "s"), "ring": ("n", "R"),
                            "helix": ("n", "R", "b", "spacing"), None: ()}),
}
_DEFAULTS = {"M": 10, "order": 0, "spacing": 1.0}


def _check_flags(args):
    """Refuse each table flag the mode does not read, require each it reads
    that has no default, and write in the defaults of the rest."""
    if args.subcommand not in _MODES:
        return
    key, modes = _MODES[args.subcommand]
    mode = getattr(args, key)
    reads = modes[mode]
    flags = dict.fromkeys(f for fs in modes.values() for f in fs)
    extra = [f"--{f}" for f in flags if f not in reads and getattr(args, f) is not None]
    if extra:
        args.parser.error(f"{mode or '--cloud'} takes no {'/'.join(extra)}")
    missing = [f"--{f}" for f in reads if getattr(args, f) is None and f not in _DEFAULTS]
    if missing:
        args.parser.error(f"{mode or '--cloud'} requires {', '.join(missing)}")
    for f in reads:
        if getattr(args, f) is None:
            setattr(args, f, _DEFAULTS[f])


def _table_rows(table):
    return [
        (p.kappa, p.gamma_norm, p.lamb_norm, p.gamma_over_gamma,
         p.classification.value)
        for p in table.points
    ]


def cmd_spectrum(args):
    grid, _ = _parse_grid(args.kappa, args.parser)
    physics = _physics(args, args.n0)
    args.n0 = physics.n0
    if args.geometry == "line":
        table = line_table(grid, physics)
    elif args.geometry == "helix":
        table = sweep(grid, HelixSpec(Omega=args.omega, r=args.radius), physics, M=args.M)
    else:
        table = cylinder_table(grid, args.order, args.radius, physics)
    text = _csv("kappa,gamma_norm,lamb_norm,gamma_over_gamma,class",
                _table_rows(table))
    _write_output(args, text)
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
    _write_output(args, text)
    ivals = ", ".join(f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in result.intervals)
    print(f"trapped intervals: {ivals if ivals else '(none)'}")
    print(f"trapped fraction: {_fmt(result.fraction)}")
    return 0


def cmd_thermal(args):
    parser = args.parser
    _, (lo, hi, step) = _parse_grid(args.kappa, parser, lists=False)
    config = ThermalConfig(beta=args.beta, kappa_min=lo, kappa_max=hi,
                           kappa_step=step, M=args.M or 0)  # None: a cylinder reads no M
    if args.series == "cylinder":
        xs = entries = _parse_list(args.r, parser)
    else:
        fixed_flag, list_flag, _ = _MODES["thermal"][1][args.series]
        fixed = _parse_list(getattr(args, fixed_flag), parser)
        if len(fixed) != 1:
            parser.error(f"--{fixed_flag} must be a single value for {args.series}")
        xs = _parse_list(getattr(args, list_flag), parser)
        specs = [{fixed_flag: fixed[0], list_flag: x} for x in xs]
        entries = [HelixSpec(Omega=v["omega"], r=v["r"]) for v in specs]
    results = thermal_sweep(entries, config)
    rows = [(x, res.gamma_th) for x, (_, res) in zip(xs, results)]
    text = _csv("x,gamma_th", rows)
    _write_output(args, text)
    return 0


def cmd_discrete_line(args):
    parser = args.parser
    grid, _ = _parse_grid(args.kappa, parser)
    orientation = Orientation(args.orientation)
    k0d = 2.0 * math.pi * args.d_over_lambda
    chain = DiscreteLineParams(k0d=k0d, orientation=orientation)
    rows = zip(grid, _chain_lamb(chain, grid).tolist(), _chain_decay(chain, grid).tolist())
    text = _csv("kappa,E_over_gamma,Gamma_over_gamma", rows)
    _write_output(args, text)
    return 0


def _build_cloud(args):
    if args.cloud is not None:
        return load_emitters(args.cloud)
    if args.n is not None:
        # before the generator allocates anything of size n
        check_oracle_size(args.n)
    generate = {"pair": pair_cloud, "line": line_cloud, "ring": ring_cloud,
                "helix": helix_cloud}[args.generate]
    return generate(*(getattr(args, f) for f in _MODES["oracle"][1][args.generate]))


def cmd_oracle(args):
    cloud = _build_cloud(args)
    physics = _physics(args, None)
    spect = cloud_spectrum(cloud, physics)
    rows = [
        (j, ev.real, ev.imag, g, e)
        for j, (ev, g, e) in enumerate(
            zip(spect.eigenvalues, spect.gamma_j, spect.lamb_j))
    ]
    text = _csv("j,ev_re,ev_im,gamma_j,lamb_j", rows)
    total = cloud.count * physics.gamma  # the kernel's trace
    residual = abs(math.fsum(spect.eigenvalues.real) - total) / total
    _write_output(args, text, eigensolve=spect.eigensolve,
                  blas_threads=spect.blas_threads, trace_residual=residual)
    single = 2.0 * physics.gamma
    print(f"emitters: {cloud.count}")
    print(f"trace residual: {_fmt(residual)}")
    print(f"max Gamma_j / Gamma_single: {_fmt(float(spect.gamma_j.max()) / single)}")
    print(f"subradiant fraction: {_fmt(subradiant_fraction(spect, physics))}")
    return 0


def cmd_fit_estimate(args):
    physics = _physics(args, args.n0_override)
    fit = fit_helix(load_emitters(args.cloud))
    if args.n0_override is not None:
        fit = with_density(fit, args.n0_override)
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
    _write_output(args, text)
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
    p.add_argument("--omega", type=float, default=None, help="Omega (helix)")
    p.add_argument("--radius", type=float, default=None,
                   help="dimensionless radius r = k0 R (helix, cylinder)")
    p.add_argument("--order", type=int, default=None,
                   help="order n (cylinder; default 0)")
    p.add_argument("--M", type=int, default=None,
                   help="Lamb-shift truncation half-width (helix; default 10)")
    _add_lambda0_flag(p)
    p.add_argument("--n0", type=float, default=None,
                   help="line density in 1/nm (default 1/lambda0)")
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
                   help="fixed Omega (helix-fix-omega) or comma list (helix-fix-r)")
    p.add_argument("--r", default=None,
                   help="fixed r (helix-fix-r) or comma list (helix-fix-omega, cylinder)")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--kappa", default="0:5:0.01", help="grid as min:max:step")
    p.add_argument("--M", type=int, default=None,
                   help="Lamb-shift truncation half-width (helix series; default 10)")
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cloud", default=None, help="emitter cloud file")
    source.add_argument("--generate", choices=["pair", "line", "ring", "helix"],
                        default=None)
    p.add_argument("--n", type=int, default=None, help="emitter count (line, ring, helix)")
    p.add_argument("--s", type=float, default=None, help="separation/spacing, nm (pair, line)")
    p.add_argument("--R", type=float, default=None, help="radius, nm (ring, helix)")
    p.add_argument("--b", type=float, default=None, help="pitch, nm (helix)")
    p.add_argument("--spacing", type=float, default=None,
                   help="arc-length spacing, nm (helix; default 1)")
    _add_lambda0_flag(p)
    p.add_argument("--gamma", type=float, default=0.514,
                   help="single-emitter decay rate in 1/ns (default 0.514)")
    _add_output_flag(p)
    p.set_defaults(func=cmd_oracle, parser=p)

    p = sub.add_parser("fit-estimate",
                       help="fit a helix to a cloud and report estimates")
    p.add_argument("--cloud", required=True, help="emitter cloud file")
    _add_lambda0_flag(p)
    # --n0 replaces the fitted density, so the manifest records it as n0_override
    p.add_argument("--n0", type=float, default=None, dest="n0_override",
                   help="line density in 1/nm replacing the fitted one (default: the fitted)")
    _add_output_flag(p)
    p.set_defaults(func=cmd_fit_estimate, parser=p)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one line, as errors are printed."""
    print(f"warning: {message}", file=sys.stderr)


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    _check_flags(args)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        # a Warning arrives here where a filter such as -W error raises it
        except (ValueError, OSError, RuntimeError, ArithmeticError, Warning) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
