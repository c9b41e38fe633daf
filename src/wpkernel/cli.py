"""Command-line front end.

Thin delegation layer over the library: every subcommand parses flags (or a
key=value config file), calls the corresponding module, and emits CSV or
JSON.  CSV files carry `#`-prefixed metadata lines including a hash of the
effective configuration, so outputs are reproducible byte-for-byte given
identical flags and seed.

Exit codes: 0 ok, 1 config error, 2 regime/domain error, 3 acceptance
failure, 4 precision budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import ALL_CRITERIA, SUITES, run_suite
from .errors import (
    ConfigError,
    ContinuationError,
    DomainError,
    PrecisionError,
    RegimeError,
    ResolutionError,
    ToleranceError,
)
from .expansion import exterior_kernel_expansion
from .general_kernel import berezin_belt_density, kernel_asymptotic, sequence_cuts, tail_kernel
from .ginibre_exact import ginibre_berezin, ginibre_kernel_exact
from .hardy import harmonic_measure_density
from .ortho_oracle import compute_moments, elliptic_kernel_exact, kernel_oracle, orthonormalize
from .potential import make_elliptic_ginibre, make_ginibre, make_radial, RadialProfile
from .szego_geometry import classify, trace_curve_K, trace_szego_curve
from .ward import GinibreSource, OracleSource, berezin_cauchy_transform, loop_residual


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if "," in text:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    try:
        return complex(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number from {text!r}") from exc


_RADIAL_PROFILES = {
    "quartic": RadialProfile(q=lambda r: 0.5 * r ** 4, dq=lambda r: 2.0 * r ** 3,
                             d2q=lambda r: 6.0 * r ** 2, name="quartic"),
    "quadratic": RadialProfile(q=lambda r: r * r, dq=lambda r: 2.0 * r,
                               d2q=lambda r: 2.0, name="quadratic"),
}


def _make_potential(args):
    kind = getattr(args, "potential", "ginibre")
    if kind == "ginibre":
        pot = make_ginibre()
    elif kind == "elliptic":
        pot = make_elliptic_ginibre(args.a, args.b)
    elif kind == "radial":
        profile = _RADIAL_PROFILES.get(args.profile)
        if profile is None:
            raise ConfigError(f"unknown radial profile {args.profile!r}")
        pot = make_radial(profile)
    else:
        raise ConfigError(f"unknown potential {kind!r}")
    belt_m = getattr(args, "belt_M", None)
    if belt_m is not None:
        if belt_m <= 0:
            raise ConfigError("M must be positive")
        pot.delta_M = belt_m
    rho0 = getattr(args, "rho0", None)
    if rho0 is not None:
        if not (0.0 < rho0 < 1.0):
            raise ConfigError("rho0 must lie in (0, 1)")
        pot.rho0 = rho0
    return pot


def _config_hash(args) -> str:
    payload = sorted(
        f"{k}={v}" for k, v in vars(args).items()
        if k not in ("func", "out") and not callable(v)
    )
    return hashlib.sha256("\n".join(payload).encode()).hexdigest()[:12]


def _open_out(args):
    if args.out in (None, "-"):
        return sys.stdout, False
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w"), True


def _emit_csv(args, header, rows):
    fh, close = _open_out(args)
    fh.write(f"# wpkernel {__version__} config {_config_hash(args)}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")
    if close:
        fh.close()


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_json(args, payload):
    fh, close = _open_out(args)
    json.dump({"version": __version__, "config": _config_hash(args), **payload},
              fh, indent=2, sort_keys=True, default=str)
    fh.write("\n")
    if close:
        fh.close()


# --- subcommands ------------------------------------------------------------


def cmd_classify(args):
    points = []
    for raw_line in Path(args.points).read_text().splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#") or line.lower().startswith("re"):
            continue
        points.append(_parse_complex(line))
    rows = []
    for z in points:
        label = classify(z, tol=args.tol)
        rows.append((z.real, z.imag, label.label.value, label.in_E_sz))
    _emit_csv(args, ["re", "im", "label", "in_exterior_domain"], rows)
    return 0


def cmd_expand(args):
    z = _parse_complex(args.z)
    w = _parse_complex(args.w)
    rows = []
    for n in args.nlist:
        exact = ginibre_kernel_exact(n, z, w).value
        approx = exterior_kernel_expansion(n, z, w, args.k, eta=args.eta)
        import cmath

        rel = abs(cmath.exp(complex(exact.log_mag - approx.log_mag,
                                    exact.arg - approx.arg)) - 1.0)
        rows.append((n, exact.log_mag, exact.arg, approx.log_mag, approx.arg, rel))
    _emit_csv(args, ["n", "exact_logmag", "exact_arg", "approx_logmag",
                     "approx_arg", "rel_error"], rows)
    return 0


def _load_basis(path: str, pot):
    from .ortho_oracle import OrthonormalBasis

    payload = json.loads(Path(path).read_text())
    coeffs = np.array([[complex(c) for c in row] for row in payload["coefficients"]])
    return OrthonormalBasis(
        n=payload["n"], max_degree=payload["degree"], coeffs=coeffs,
        scale=payload["scale"], pot=pot,
        gram_residual=payload["gram_residual"],
    )


def cmd_kernel(args):
    pot = _make_potential(args)
    z = _parse_complex(args.z)
    w = _parse_complex(args.w)
    n = args.n
    values = {}
    if args.mode in ("asymptotic", "all"):
        values["asymptotic"] = kernel_asymptotic(pot, n, z, w, eta=args.eta).value
    if args.mode in ("tail", "all"):
        values["tail"] = tail_kernel(pot, n, z, w)
    if args.mode in ("oracle", "all"):
        if args.basis:
            values["oracle"] = kernel_oracle(_load_basis(args.basis, pot), z, w)
        elif args.potential == "elliptic":
            values["oracle"] = elliptic_kernel_exact(pot, n, z, w)
        else:
            basis = orthonormalize(compute_moments(pot, n, n - 1))
            values["oracle"] = kernel_oracle(basis, z, w)
    rows = []
    names = sorted(values)
    for name in names:
        v = values[name]
        rows.append((name, v.log_mag, v.arg))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ratio = math.exp(values[a].log_mag - values[b].log_mag)
            rows.append((f"ratio:{a}/{b}", ratio, 0.0))
    _emit_csv(args, ["mode", "log_mag", "arg"], rows)
    return 0


def cmd_berezin(args):
    pot = _make_potential(args)
    z = _parse_complex(args.z)
    n = args.n
    cuts = sequence_cuts(n, pot.delta_M)
    thetas = 2.0 * math.pi * np.arange(args.nodes) / args.nodes
    ells = np.linspace(-cuts.delta_n, cuts.delta_n, args.ell_nodes)
    rows = []
    use_exact = pot.name == "ginibre"
    for idx, theta in enumerate(thetas):
        bp = pot.boundary_point(theta, 1.0)
        arclength = abs(pot.dchi(complex(math.cos(theta), math.sin(theta)), 1.0))
        for ell in ells:
            model = berezin_belt_density(pot, n, z, bp, ell).density
            if use_exact:
                w_pt = bp.p + ell * bp.normal
                exact = ginibre_berezin(n, z, w_pt) / math.pi
            else:
                exact = float("nan")
            ratio = exact / model if use_exact and model > 0 else float("nan")
            rows.append((idx, arclength, ell, exact, model, ratio))
    _emit_csv(args, ["p_index", "arclength", "ell", "density_exact_or_oracle",
                     "density_gaussian", "ratio"], rows)
    return 0


def cmd_droplet(args):
    pot = _make_potential(args)
    geom = pot.droplet_geometry(args.tau, m=args.nodes)
    rows = [(p.real, p.imag) for p in geom.boundary]
    _emit_csv(args, ["re", "im"], rows)
    return 0


def cmd_oracle(args):
    pot = _make_potential(args)
    gram = compute_moments(pot, args.n, args.degree)
    basis = orthonormalize(gram)
    coeffs = [[str(c) for c in row] for row in np.asarray(basis.coeffs, dtype=object)]
    _emit_json(args, {
        "n": args.n, "degree": args.degree,
        "cond_estimate": gram.cond_estimate,
        "gram_residual": basis.gram_residual,
        "scale": basis.scale,
        "coefficients": coeffs,
    })
    return 0


def cmd_ward(args):
    n = args.n
    if args.source == "ginibre":
        source = GinibreSource(n)
    else:
        pot = _make_potential(args)
        basis = orthonormalize(compute_moments(pot, n, n - 1))
        source = OracleSource(basis, pot)
    report = []
    for z_text in args.z:
        z = _parse_complex(z_text)
        lr = loop_residual(source, z)
        mu = berezin_cauchy_transform(source, z)
        report.append({
            "z": [z.real, z.imag],
            "cauchy_transform": [mu.real, mu.imag],
            "lhs": [lr.lhs.real, lr.lhs.imag],
            "rhs": lr.rhs,
            "residual": abs(lr.residual),
            "budget": lr.budget,
            "fd_step": lr.fd_step,
        })
    _emit_json(args, {"n": n, "source": args.source, "points": report})
    return 0


def cmd_validate(args):
    results = run_suite(args.suite, echo=print)
    payload = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "title": r.title, "passed": r.passed,
             "elapsed_s": round(r.elapsed, 2), "details": r.details}
            for r in results
        ],
    }
    if args.out:
        _emit_json(args, payload)
    return 0 if payload["passed"] else 3


def cmd_figures(args):
    emitted = []
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    if args.szego_curve:
        curve = trace_szego_curve(step=args.step)
        path = outdir / "szego_curve.csv"
        with path.open("w") as fh:
            fh.write(f"# wpkernel {__version__} szego curve step={args.step}\n")
            fh.write("re,im\n")
            for p in curve.points:
                fh.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
        emitted.append(str(path))
        curve_k = trace_curve_K(extent=1.0, step=args.step)
        path = outdir / "curve_K.csv"
        with path.open("w") as fh:
            fh.write(f"# wpkernel {__version__} level curve through the saddle\n")
            fh.write("re,im\n")
            for p in curve_k.points:
                fh.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
        emitted.append(str(path))
    if args.berezin_surface:
        n, z = args.n, _parse_complex(args.z)
        xs = np.linspace(-1.6, 2.4, args.nodes)
        ys = np.linspace(-1.6, 1.6, args.nodes)
        path = outdir / f"berezin_surface_n{n}.csv"
        with path.open("w") as fh:
            fh.write(f"# wpkernel {__version__} Berezin surface n={n} z={z}\n")
            fh.write("re,im,density\n")
            for x in xs:
                for y in ys:
                    fh.write(f"{_fmt(float(x))},{_fmt(float(y))},"
                             f"{_fmt(ginibre_berezin(n, z, complex(x, y)))}\n")
        emitted.append(str(path))
    if args.droplets:
        for name, pot in (("ginibre", make_ginibre()),
                          ("elliptic", make_elliptic_ginibre(args.a, args.b))):
            geom = pot.droplet_geometry(1.0, m=args.nodes)
            path = outdir / f"droplet_{name}.csv"
            with path.open("w") as fh:
                fh.write(f"# wpkernel {__version__} droplet boundary {name}\n")
                fh.write("re,im\n")
                for p in geom.boundary:
                    fh.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
            emitted.append(str(path))
    print("\n".join(emitted))
    return 0


def _apply_config_file(argv):
    """Expand `--config file` into key=value flags ahead of parsing."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError as exc:
        raise ConfigError("--config needs a file path") from exc
    extra = []
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        extra.extend([f"--{key}", value])
    return argv[:idx] + extra + argv[idx + 2:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wpkernel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, potential=True):
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        p.add_argument("--seed", type=int, default=0)
        if potential:
            p.add_argument("--potential", default="ginibre",
                           choices=["ginibre", "elliptic", "radial"])
            p.add_argument("--a", type=float, default=1.0)
            p.add_argument("--b", type=float, default=3.0)
            p.add_argument("--profile", default="quartic")
            p.add_argument("--M", dest="belt_M", type=float, default=1.0,
                           help="constant M in the belt width delta_n")
            p.add_argument("--rho0", type=float, default=0.5,
                           help="pullback radius of the excluded compact")

    p = sub.add_parser("classify", help="region labels for a CSV of points")
    p.add_argument("--points", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p, potential=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("expand", help="exterior expansion vs the exact kernel")
    p.add_argument("--nlist", type=int, nargs="+", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eta", type=float, default=0.05)
    common(p, potential=False)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("kernel", help="kernel values by mode")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--mode", default="all",
                   choices=["asymptotic", "tail", "oracle", "all"])
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--basis", default=None,
                   help="JSON basis dump from the oracle subcommand")
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("berezin", help="belt density grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--ell-nodes", dest="ell_nodes", type=int, default=21)
    common(p)
    p.set_defaults(func=cmd_berezin)

    p = sub.add_parser("droplet", help="droplet boundary points")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=256)
    common(p)
    p.set_defaults(func=cmd_droplet)

    p = sub.add_parser("oracle", help="orthonormal basis dump")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ward", help="loop-equation residual report")
    p.add_argument("--source", default="ginibre", choices=["ginibre", "oracle"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", nargs="+", required=True)
    common(p)
    p.set_defaults(func=cmd_ward)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--suite", default="all", choices=sorted(SUITES))
    common(p, potential=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figures", help="emit plot-data point sets")
    p.add_argument("--szego-curve", action="store_true")
    p.add_argument("--berezin-surface", action="store_true")
    p.add_argument("--droplets", action="store_true")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--z", default="2,0")
    p.add_argument("--nodes", type=int, default=128)
    common(p)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RegimeError, DomainError, ContinuationError) as exc:
        print(f"domain/regime error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, ResolutionError, ToleranceError) as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
