"""Command-line front end.

Thin delegation layer over the library: every subcommand parses flags (or a
key=value config file), calls the corresponding module, and emits CSV or
JSON.  CSV files carry `#`-prefixed metadata lines including a hash of the
effective configuration, so outputs are reproducible byte-for-byte given
identical flags; no subcommand draws random numbers.

Exit codes: 0 ok, 1 config error, 2 regime/domain error, 3 acceptance
failure, 4 precision budget exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import SUITES, run_suite
from .errors import (
    ConfigError,
    DomainError,
    PrecisionError,
    RegimeError,
    ResolutionError,
    ToleranceError,
    check_finite,
    check_index,
)
from .expansion import exterior_kernel_expansion
from .general_kernel import berezin_belt_density, kernel_asymptotic, sequence_cuts, tail_kernel
from .ginibre_exact import ginibre_berezin_array, ginibre_kernel_exact
from .ortho_oracle import compute_moments, orthonormalize
from .potential import RADIAL_PROFILES, make_elliptic_ginibre, make_ginibre, make_radial
from .scaled_numerics import quad_trapezoid_periodic
from .szego_geometry import (_LABELS, _check_tol, _classify_codes, trace_curve_K,
                             trace_szego_curve)
from .ward import loop_residual


def _parse_complex(text: str) -> complex:
    text = text.strip()
    try:
        if "," in text:
            re_s, im_s = text.split(",")
            return complex(float(re_s), float(im_s))
        return complex(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number from {text!r}") from exc


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc


def _make_potential(args):
    kind = args.potential
    if kind == "ginibre":
        pot = make_ginibre()
    elif kind == "elliptic":
        pot = make_elliptic_ginibre(args.a, args.b)
    elif kind == "radial":
        profile = RADIAL_PROFILES.get(args.profile)
        if profile is None:
            raise ConfigError(f"unknown radial profile {args.profile!r}")
        pot = make_radial(profile)
    else:
        raise ConfigError(f"unknown potential {kind!r}")
    if not 0.0 < args.belt_M < math.inf:
        raise ConfigError("M must be positive and finite")
    pot.delta_M = args.belt_M
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


def _write_csv(fh, comment, header, rows):
    """The `# wpkernel <version> <comment>` line, the header row, one row per entry.

    `rows` is a list of tuples, each written with one `%` format picked by its
    value types: `%.17g` for a float (numpy float64 included), `%s` for anything
    else, the bytes of format(v, ".17g") and str(v).  When the rows have one
    length and each column holds only floats or no float, one format serves
    every row, picked from the column types instead of each row's.
    """
    lines = [f"# wpkernel {__version__} {comment}", ",".join(header)]
    columns = list(zip(*rows))
    kinds = [{issubclass(t, float) for t in set(map(type, column))} for column in columns]
    if set(map(len, rows)) == {len(columns)} and all(len(kind) == 1 for kind in kinds):
        lines += map(",".join("%.17g" if True in kind else "%s" for kind in kinds).__mod__, rows)
    else:
        formats = {}
        for row in rows:
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join(
                    "%.17g" if issubclass(t, float) else "%s" for t in types)
            lines.append(fmt % row)
    lines.append("")
    fh.write("\n".join(lines))


def _emit_csv(args, header, rows):
    fh, close = _open_out(args)
    _write_csv(fh, f"config {_config_hash(args)}", header, rows)
    if close:
        fh.close()


def _emit_json(args, payload):
    fh, close = _open_out(args)
    json.dump({"version": __version__, "config": _config_hash(args), **payload},
              fh, indent=2, sort_keys=True, default=str)
    fh.write("\n")
    if close:
        fh.close()


# --- subcommands ------------------------------------------------------------


def _parse_points(lines) -> np.ndarray:
    """The points of the data lines, in file order, as one finite complex array.

    When every line holds one comma, so that the fields pair up line by line,
    they are parsed as one vector by float().  Any other file, or one with a
    field float() refuses, is parsed line by line by `_parse_complex`, each
    point checked for finiteness in turn, so the first faulty line picks the
    error.
    """
    if set(map(str.count, lines, itertools.repeat(","))) == {1}:
        fields = ",".join(lines).split(",")
        try:
            xy = np.fromiter(map(float, fields), float, len(fields))
        except ValueError:
            pass
        else:
            # the view keeps each part's sign and infinity, which x + 1j * y does not
            zeta = xy.view(complex)
            check_finite(*zeta[~np.isfinite(zeta)].tolist())
            return zeta
    points = []
    for line in lines:
        z = _parse_complex(line)
        check_finite(z)
        points.append(z)
    return np.array(points, dtype=complex)


def cmd_classify(args):
    _check_tol(args.tol)
    lines = [line for line in map(str.strip, _read_text(args.points).splitlines())
             if line and not line.startswith("#") and not line.lower().startswith("re")]
    zeta = _parse_points(lines)
    codes = _classify_codes(zeta, args.tol).tolist()
    names = [label.label.value for label in _LABELS]
    exterior = [label.in_E_sz for label in _LABELS]
    rows = zip(zeta.real.tolist(), zeta.imag.tolist(),
               map(names.__getitem__, codes), map(exterior.__getitem__, codes))
    _emit_csv(args, ["re", "im", "label", "in_exterior_domain"], list(rows))
    return 0


def cmd_expand(args):
    z = _parse_complex(args.z)
    w = _parse_complex(args.w)
    rows = []
    for n in args.nlist:
        exact = ginibre_kernel_exact(n, z, w).value
        approx = exterior_kernel_expansion(n, z, w, args.k, eta=args.eta)
        rel = abs(cmath.exp(complex(exact.log_mag - approx.log_mag,
                                    exact.arg - approx.arg)) - 1.0)
        rows.append((n, exact.log_mag, exact.arg, approx.log_mag, approx.arg, rel))
    _emit_csv(args, ["n", "exact_logmag", "exact_arg", "approx_logmag",
                     "approx_arg", "rel_error"], rows)
    return 0


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
        values["oracle"] = pot.exact_kernel(n)(z, w)
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
    check_index(args.ell_nodes, "--ell-nodes", 1)
    cuts = sequence_cuts(n, pot.delta_M)
    thetas = quad_trapezoid_periodic(args.nodes).nodes
    _, points, speed, nus = pot.boundary_grid(args.nodes, 1.0)
    ells = np.linspace(-cuts.delta_n, cuts.delta_n, args.ell_nodes)
    model = berezin_belt_density(pot, n, z, thetas[:, None], ells)
    kernel = pot.exact_kernel(n)
    log_kzz = kernel(z, z).log_mag
    rows = []
    for idx, (p, normal, arclength) in enumerate(zip(points, nus / speed, speed)):
        for ell, dens in zip(ells, model[idx]):
            exact = math.exp(2.0 * kernel(z, p + ell * normal).log_mag - log_kzz) / math.pi
            ratio = exact / dens if dens > 0 else float("nan")
            rows.append((idx, arclength, ell, exact, dens, ratio))
    _emit_csv(args, ["p_index", "arclength", "ell", "density_exact_or_oracle",
                     "density_gaussian", "ratio"], rows)
    return 0


def cmd_droplet(args):
    pot = _make_potential(args)
    _, boundary, _, _ = pot.boundary_grid(args.nodes, args.tau)
    _emit_csv(args, ["re", "im"], [(p.real, p.imag) for p in boundary])
    return 0


def cmd_oracle(args):
    pot = _make_potential(args)
    gram = compute_moments(pot, args.n, args.degree)
    basis = orthonormalize(gram)
    _emit_json(args, {
        "n": args.n, "degree": args.degree,
        "cond_estimate": gram.cond_estimate,
        "gram_residual": basis.gram_residual,
        "scale": basis.scale,
    })
    return 0


def cmd_ward(args):
    n = args.n
    source = _make_potential(args).exact_source(n)
    report = []
    for z_text in args.z:
        z = _parse_complex(z_text)
        lr = loop_residual(source, z)
        report.append({
            "z": [z.real, z.imag],
            "cauchy_transform": [lr.cauchy_transform.real, lr.cauchy_transform.imag],
            "lhs": [lr.lhs.real, lr.lhs.imag],
            "rhs": lr.rhs,
            "residual": abs(lr.residual),
            "budget": lr.budget,
        })
    _emit_json(args, {"n": n, "source": source.name, "points": report})
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
    check_index(args.nodes, "--nodes", 1)
    emitted = []
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    def emit(name, comment, header, rows):
        path = outdir / name
        with path.open("w") as fh:
            _write_csv(fh, comment, header, rows)
        emitted.append(str(path))

    if args.szego_curve:
        emit("szego_curve.csv", f"szego curve step={args.step}", ["re", "im"],
             [(p.real, p.imag) for p in trace_szego_curve(step=args.step).points])
        emit("curve_K.csv", "level curve through the saddle", ["re", "im"],
             [(p.real, p.imag) for p in trace_curve_K(step=args.step).points])
    if args.berezin_surface:
        n, z = args.n, _parse_complex(args.z)
        xs = np.linspace(-1.6, 2.4, args.nodes)
        ys = np.linspace(-1.6, 1.6, args.nodes)
        density, _ = ginibre_berezin_array(n, z, xs[:, None] + 1j * ys[None, :], False)
        emit(f"berezin_surface_n{n}.csv", f"Berezin surface n={n} z={z}", ["re", "im", "density"],
             [(float(x), float(y), float(b)) for x, row in zip(xs, density) for y, b in zip(ys, row)])
    if args.droplets:
        for name, pot in (("ginibre", make_ginibre()),
                          ("elliptic", make_elliptic_ginibre(args.a, args.b))):
            _, boundary, _, _ = pot.boundary_grid(args.nodes, 1.0)
            emit(f"droplet_{name}.csv", f"droplet boundary {name}", ["re", "im"],
                 [(p.real, p.imag) for p in boundary])
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
    for raw_line in _read_text(path).splitlines():
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

    def ellipse(p):
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--b", type=float, default=3.0)

    def common(p, potential=True):
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        if potential:
            p.add_argument("--potential", default="ginibre",
                           choices=["ginibre", "elliptic", "radial"])
            ellipse(p)
            p.add_argument("--profile", default="quartic")
            p.add_argument("--M", dest="belt_M", type=float, default=1.0,
                           help="constant M in the belt width delta_n")

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

    p = sub.add_parser("oracle", help="Gram basis health report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ward", help="loop-equation residual report")
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
    ellipse(p)
    common(p, potential=False)
    p.set_defaults(func=cmd_figures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call and reused by the rest.

    Parsing leaves the parser unchanged: each call fills a new namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RegimeError, DomainError) as exc:
        print(f"domain/regime error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, ResolutionError, ToleranceError) as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
