"""Spans around the public functions of each wpkernel module.

The library records nothing itself, so the tracer replaces each public
function by a recording wrapper in every wpkernel module that bound it at
import time (`from .ginibre_exact import ginibre_berezin_array` makes
`wpkernel.ward.ginibre_berezin_array` a separate name).  A few functions are
also replaced in their own module, where the library calls them through the
module global or imports them lazily.  Kernel sources handed to `ward` are
wrapped in a forwarding proxy so that the boundary between `ward` and its
source gets a span.  A function that a later version of the library no
longer has is skipped.

A span is [id, parent, layer, name, phase, start, end, counts]; spans stay
in memory until the run writes them out.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

import numpy as np

LAYERS = ("scaled_numerics", "ginibre_exact", "szego_geometry", "expansion",
          "potential", "hardy", "general_kernel", "ortho_oracle", "ward", "cli")

_clock = time.perf_counter

# per-layer metrics computed from call arguments at the layer boundary,
# not measured inside the library
COMPUTED = frozenset({
    "ginibre_exact.zeta_points", "ginibre_exact.point_terms", "ginibre_exact.point_terms_per_s",
    "ginibre_exact.points_per_call", "ward.grid_nodes", "ward.grid_nodes_per_s",
    "szego_geometry.disc_share", "potential.fft_nodes", "general_kernel.tail_terms",
    "general_kernel.tail_terms_per_s", "ortho_oracle.gram_dim_max",
})


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _points_count(fn, n_name, points):
    """Counter for ginibre_exact: zeta points requested and n x points."""
    def count(args, kwargs, result):
        a = _bound_args(fn, args, kwargs)
        k = points(a)
        return {"zeta_points": k, "point_terms": int(a[n_name]) * k}
    return count


def _classify_count(args, kwargs, result):
    zeta = complex(args[0] if args else kwargs["zeta"])
    tol = float(kwargs.get("tol", args[1] if len(args) > 1 else 1e-9))
    # the classifier reaches its polygon test only inside the unit disc
    # where |u| = |zeta| e^{1 - Re zeta} <= 1
    disc = abs(zeta) < 1.0 and abs(zeta) * math.exp(1.0 - zeta.real) <= 1.0 + tol
    return {"disc": int(disc)}


def _cli_count(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is None:
        return {}
    try:
        with open(out, "rb") as fh:
            return {"bytes_out": len(fh.read())}
    except OSError:
        return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.skipped = []   # public functions this library version lacks
        self.active = False

    # --- recording ---------------------------------------------------------
    def _open(self, layer, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, layer, name, self.phase, _clock(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[6] = _clock()
        self._stack.pop()

    def wrap(self, fn, layer, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span[7] = count(args, kwargs, result)
            return result

        return traced

    # --- installation ------------------------------------------------------
    def patch_function(self, module, attr, count=None, internal=False):
        """Replace module.attr wherever a wpkernel module bound it."""
        home = sys.modules[f"wpkernel.{module}"]
        original = getattr(home, attr, None)
        if original is None:
            self.skipped.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(original, module, f"{module}.{attr}", count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wpkernel" or mod_name.startswith("wpkernel.")):
                continue
            if mod is home and not internal:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, original))

    def patch_method(self, cls, attr, layer, count=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.skipped.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self.wrap(original, layer, f"{layer}.{cls.__name__}.{attr}", count))
        self._patches.append((cls, attr, original))

    def install(self):
        import wpkernel.cli  # noqa: F401  (binds names the CLI imports)
        from wpkernel import potential

        self.skipped = []
        f = self.patch_function
        gx = sys.modules["wpkernel.ginibre_exact"]
        one = lambda a: 1
        for attr in ("ginibre_kernel_exact", "partial_exp_sum", "partial_exp_sum_gamma_route",
                     "partial_exp_sum_complement", "ginibre_berezin", "ginibre_one_point",
                     "ginibre_log_one_point"):
            fn = getattr(gx, attr, None)
            if fn is not None:
                f("ginibre_exact", attr, _points_count(fn, "n", one))
        arr = getattr(gx, "ginibre_berezin_array", None)
        if arr is not None:
            f("ginibre_exact", "ginibre_berezin_array",
              _points_count(arr, "n", lambda a: int(np.size(a["ws"]))))
        for attr in ("berezin_cauchy_transform", "loop_residual"):
            f("ward", attr, internal=True)
        for attr in ("harmonic_limit_check", "ginthm_two_term"):
            f("ward", attr)
        f("szego_geometry", "classify", _classify_count)
        for attr in ("trace_szego_curve", "trace_curve_K"):
            f("szego_geometry", attr)
        f("cli", "main", _cli_count, internal=True)
        for attr in ("exterior_kernel_expansion", "bulk_kernel_expansion",
                     "berezin_gaussian_ginibre", "correction_table"):
            f("expansion", attr)
        for attr in ("lc_sum", "lc_sum_scaled_parts", "quad_trapezoid_periodic",
                     "gauss_on_interval", "composite_gauss", "quad_radial"):
            f("scaled_numerics", attr)
        # ward imports the Gauss-Legendre rule lazily from the module
        f("scaled_numerics", "quad_gauss_legendre", internal=True)
        ext = getattr(potential, "harmonic_extension", None)
        if ext is not None:
            f("potential", "harmonic_extension",
              lambda a, k, r: {"fft_nodes": int(_bound_args(ext, a, k)["nodes"])},
              internal=True)
        for attr in ("droplet_mass", "make_elliptic_ginibre", "make_ginibre", "make_radial"):
            f("potential", attr)
        for cls in (potential.GinibrePotential, potential.RadialPotential,
                    potential.EllipticGinibrePotential):
            self.patch_method(cls, "script_Q", "potential")
        for attr in ("szego_kernel", "szego_basis", "szego_kernel_series",
                     "szego_reproducing_check", "harmonic_measure_density",
                     "harmonic_measure_mass", "harmonic_measure_integral"):
            f("hardy", attr)
        tail = getattr(sys.modules["wpkernel.general_kernel"], "tail_kernel", None)
        cuts = getattr(sys.modules["wpkernel.general_kernel"], "sequence_cuts", None)
        if tail is not None and cuts is not None:
            def tail_count(a, k, r):
                b = _bound_args(tail, a, k)
                n = int(b["n"])
                theta = cuts(n, b["pot"].delta_M).theta_n
                return {"tail_terms": n - max(0, int(math.ceil(n * theta - 1e-9)))}
            f("general_kernel", "tail_kernel", tail_count)
        for attr in ("kernel_asymptotic", "h_function", "berezin_belt_density",
                     "lowdeg_bound_check", "cocycle", "boundary_correlation_modulus"):
            f("general_kernel", attr)
        f("ortho_oracle", "compute_moments",
          lambda a, k, r: {"gram_dim": int(r.max_degree) + 1, "cond": float(r.cond_estimate)})
        f("ortho_oracle", "orthonormalize",
          lambda a, k, r: {"gram_residual": float(r.gram_residual)})
        # OracleSource imports kernel_oracle lazily from the module
        f("ortho_oracle", "kernel_oracle", internal=True)
        self.active = True

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def source(self, src):
        """Forwarding proxy that records spans at the ward/source boundary."""
        return _SourceProxy(src, self) if self.active else src

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "name", "phase", "start",
                                  "end", "counts"], "spans": self.spans}, fh)


class _SourceProxy:
    def __init__(self, src, tracer):
        self._src = src
        kind = type(src).__name__
        self.berezin_grid = tracer.wrap(
            src.berezin_grid, "ward", f"ward.{kind}.berezin_grid",
            lambda a, k, r: {"grid_nodes": int(np.size(r))})
        self.log_one_point = tracer.wrap(src.log_one_point, "ward",
                                         f"ward.{kind}.log_one_point")

    def __getattr__(self, name):
        return getattr(self._src, name)


# --- per-layer metrics ------------------------------------------------------


def _percentile(values, q):
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))


def _self_time(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[6] - s[5] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[6] - s[5]
    return own


def layer_self_times(spans, phase="pass"):
    """Self time per layer over spans of one phase."""
    own = _self_time(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s[4] == phase:
            out[s[2]] += own[s[0]]
    return out


# per-layer sums, reported per traced pass so that a run that fits more
# passes into its time does not read as more work
_PER_PASS = frozenset({
    "ginibre_exact.self_s", "ginibre_exact.calls", "ginibre_exact.zeta_points",
    "ginibre_exact.point_terms", "ward.self_s", "ward.transforms", "ward.loop_residuals",
    "ward.grid_calls", "ward.grid_nodes", "szego_geometry.self_s", "szego_geometry.points",
    "cli.self_s", "cli.bytes_out", "expansion.self_s", "expansion.calls",
    "scaled_numerics.self_s", "scaled_numerics.lc_sums", "scaled_numerics.quad_builds",
    "potential.self_s", "potential.extension_solves", "potential.script_Q_calls",
    "potential.fft_nodes", "hardy.self_s", "hardy.calls", "general_kernel.self_s",
    "general_kernel.asymptotic_calls", "general_kernel.tail_terms", "ortho_oracle.moments_s",
    "ortho_oracle.orthonormalize_s", "ortho_oracle.kernel_evals",
})


def layer_metrics(spans, n_passes: int, overhead_frac: float):
    """Every per-layer metric of BENCHMARK.json from `n_passes` traced passes."""
    by_id = {s[0]: s for s in spans}
    passes = [s for s in spans if s[4] == "pass"]
    self_s = layer_self_times(spans)

    def parent_layer(s):
        return by_id[s[1]][2] if s[1] is not None else None

    def named(suffix):
        return [s for s in passes if s[3].endswith(suffix)]

    def total(items, key):
        return sum((s[7] or {}).get(key, 0) for s in items)

    def duration(items):
        return sum(s[6] - s[5] for s in items)

    m = {}
    gx = [s for s in passes if s[2] == "ginibre_exact" and parent_layer(s) != "ginibre_exact"]
    points = total(gx, "zeta_points")
    terms = total(gx, "point_terms")
    m["ginibre_exact.self_s"] = self_s["ginibre_exact"]
    m["ginibre_exact.calls"] = len(gx)
    m["ginibre_exact.zeta_points"] = points
    m["ginibre_exact.point_terms"] = terms
    m["ginibre_exact.point_terms_per_s"] = terms / duration(gx) if gx else 0.0
    m["ginibre_exact.points_per_call"] = points / len(gx) if gx else 0.0

    grids = named(".berezin_grid")
    nodes = total(grids, "grid_nodes")
    m["ward.self_s"] = self_s["ward"]
    m["ward.transforms"] = len(named("ward.berezin_cauchy_transform"))
    m["ward.loop_residuals"] = len(named("ward.loop_residual"))
    m["ward.grid_calls"] = len(grids)
    m["ward.grid_nodes"] = nodes
    m["ward.grid_nodes_per_s"] = nodes / duration(grids) if grids else 0.0

    cls = named("szego_geometry.classify")
    us = [(s[6] - s[5]) * 1e6 for s in cls]
    first = [s for s in spans if s[3] == "szego_geometry.classify"][:1]
    m["szego_geometry.self_s"] = self_s["szego_geometry"]
    m["szego_geometry.points"] = len(cls)
    m["szego_geometry.us_per_point_p50"] = _percentile(us, 50)
    m["szego_geometry.us_per_point_p99"] = _percentile(us, 99)
    m["szego_geometry.first_call_s"] = first[0][6] - first[0][5] if first else 0.0
    m["szego_geometry.disc_share"] = total(cls, "disc") / len(cls) if cls else 0.0

    m["cli.self_s"] = self_s["cli"]
    m["cli.bytes_out"] = total(named("cli.main"), "bytes_out")

    m["expansion.self_s"] = self_s["expansion"]
    m["expansion.calls"] = len([s for s in passes if s[2] == "expansion"])

    sn = [s for s in passes if s[2] == "scaled_numerics" and parent_layer(s) != "scaled_numerics"]
    m["scaled_numerics.self_s"] = self_s["scaled_numerics"]
    m["scaled_numerics.lc_sums"] = len([s for s in sn if ".lc_sum" in s[3]])
    m["scaled_numerics.quad_builds"] = len([s for s in sn if ".lc_sum" not in s[3]])

    solves = named("potential.harmonic_extension")
    sq = named(".script_Q")
    m["potential.self_s"] = self_s["potential"]
    m["potential.extension_solves"] = len(solves)
    m["potential.script_Q_calls"] = len(sq)
    m["potential.extension_reuse"] = 1.0 - len(solves) / len(sq) if sq else 0.0
    m["potential.fft_nodes"] = total(solves, "fft_nodes")

    m["hardy.self_s"] = self_s["hardy"]
    m["hardy.calls"] = len([s for s in passes if s[2] == "hardy" and parent_layer(s) != "hardy"])

    tails = named("general_kernel.tail_kernel")
    tail_terms = total(tails, "tail_terms")
    m["general_kernel.self_s"] = self_s["general_kernel"]
    m["general_kernel.asymptotic_calls"] = len(named("general_kernel.kernel_asymptotic"))
    m["general_kernel.tail_terms"] = tail_terms
    m["general_kernel.tail_terms_per_s"] = tail_terms / duration(tails) if tails else 0.0

    moments = named("ortho_oracle.compute_moments")
    ortho = named("ortho_oracle.orthonormalize")
    own = _self_time(spans)
    m["ortho_oracle.moments_s"] = sum(own[s[0]] for s in moments)
    m["ortho_oracle.orthonormalize_s"] = sum(own[s[0]] for s in ortho)
    m["ortho_oracle.kernel_evals"] = len(named("ortho_oracle.kernel_oracle"))
    m["ortho_oracle.gram_dim_max"] = max([(s[7] or {}).get("gram_dim", 0) for s in moments],
                                         default=0)
    m["ortho_oracle.cond_max"] = max([(s[7] or {}).get("cond", 0.0) for s in moments],
                                     default=0.0)
    m["ortho_oracle.gram_residual_max"] = max(
        [(s[7] or {}).get("gram_residual", 0.0) for s in ortho], default=0.0)

    m["trace_overhead_frac"] = overhead_frac
    return {k: v / n_passes if k in _PER_PASS else v for k, v in m.items()}
