"""The input contract of the public API: a hostile argument raises a typed error.

Every public callable of `wpkernel` that takes a point, a real coordinate,
a particle count, an integer degree or order, a term or node count, or a
tolerance, saddle distance or belt constant is called with valid
arguments built from its parameter names, then with one argument at a time
replaced by a hostile value; it must raise one of the error types of
`wpkernel.errors`.
A silent NaN, 0.0 or label, a raw `OverflowError` or a numpy
`RuntimeWarning` (an error under the test configuration) all fail.
"""

import dataclasses
import enum
import inspect
import math
import warnings

import numpy as np
import pytest

import wpkernel
from wpkernel import errors
from wpkernel.potential import RADIAL_PROFILES

BIG = 1.5e308 * (1 + 1j)  # finite, but |Re| + |Im| overflows
_HOSTILE = {
    **dict.fromkeys(("z", "w", "zeta", "p"), (complex(math.nan, 0.0), complex(math.inf, 0.0), BIG)),
    **dict.fromkeys(("theta", "ell", "tau"), (math.nan, math.inf)),
    "n": (0, -3, 3.5),
    # degrees, orders and basis indices: negative, fractional, and past the
    # exact series' order 6
    **dict.fromkeys(("j", "max_degree", "f_index"), (-1, 1.5)),
    "k": (-1, 1.5, 7),
    "js": ([-1], [1.5]),
    # term, node and angle counts: below 1, and fractional
    **dict.fromkeys(("terms", "nodes", "j_max"), (0, -1, 1.5)),
    # the saddle distance and the belt constant: positive and finite; the
    # classification tolerance: non-negative and finite
    "eta": (math.nan, 0.0, -1.0),
    "M": (math.nan, math.inf, 0.0),
    "tol": (math.nan, -1.0, math.inf),
}

# callables the walk does not build arguments for: they take library objects, not points
_NOT_WALKED = {
    "harmonic_extension": "takes boundary data f, a callable",
    "make_radial": "takes a RadialProfile of callables",
    "orthonormalize": "takes a GramData record",
    "lc_from_complex": "takes the parts of a number, tested in test_scaled_numerics",
    "lc_mul": "takes LogComplex values",
    "lc_sum": "takes LogComplex values",
    "poly_derivative": "takes a PolynomialQ",
    "poly_eval": "takes a PolynomialQ, and evaluates it at Fraction points too",
    "poly_q": "takes exact rational coefficients",
}
# callables with a correct finite answer at BIG; NaN and inf still raise
_FINITE_AT_BIG = {
    "u_map": "u(BIG) = BIG e^{1 - BIG} underflows to 0j",
    "classify": "|u(BIG)| underflows to 0, so BIG is in region II (test_szego_geometry)",
}


def _boundary(theta):
    return lambda pot: pot.boundary_point(theta).p


_GIN = wpkernel.make_ginibre()
_ELL = wpkernel.make_elliptic_ginibre(1.0, 3.0)
# valid arguments by parameter name; a callable value is built from the potential
_VALID = {
    "n": 12, "z": 1.3 + 0.2j, "w": 1.2 - 0.5j, "zeta": 1.5 + 0.5j, "p": _boundary(0.3),
    "theta": 0.7, "ell": 0.01, "tau": 0.9, "j": 11, "k": 2, "f_index": 2, "max_degree": 11,
    "js": [10, 11], "zs": [1.3 + 0.2j], "r": wpkernel.rho(1),
    "source": lambda pot: wpkernel.GinibreSource(12),
    "basis": lambda pot: wpkernel.orthonormalize(wpkernel.compute_moments(pot, 12, 11)),
}
# where a callable needs other points than the defaults
_OVERRIDES = {
    "bulk_kernel_expansion": {"z": 0.3, "w": 0.2j},  # z w~ in region I
    "equilibrium_log_potential": {"z": 0.1 + 0.1j},  # inside the droplet
    "cocycle": {"z": _boundary(0.3), "w": _boundary(2.0)},  # on the boundary
    "boundary_correlation_modulus": {"z": _boundary(0.3), "w": _boundary(2.0)},
}
_POTENTIALS = {"lowdeg_bound_check": [_GIN], "elliptic_kernel_exact": [_ELL]}


def _walked():
    """(name, callable) of every public function and computing class of wpkernel
    that takes a parameter with hostile values."""
    for name, obj in sorted(vars(wpkernel).items()):
        if name.startswith("_") or name in _NOT_WALKED:
            continue
        record = inspect.isclass(obj) and (dataclasses.is_dataclass(obj)
                                           or issubclass(obj, (Exception, enum.Enum)))
        if ((inspect.isfunction(obj) or (inspect.isclass(obj) and not record))
                and _HOSTILE.keys() & inspect.signature(obj).parameters.keys()):
            yield name, obj


_TYPED = tuple(v for v in vars(errors).values() if inspect.isclass(v) and issubclass(v, Exception))


def _arguments(name, params, pot):
    values = {**_VALID, **_OVERRIDES.get(name, {}), "pot": pot}
    args = {}
    for param in params.values():
        if param.name in values:
            value = values[param.name]
            args[param.name] = value(pot) if callable(value) else value
        elif param.default is inspect.Parameter.empty:
            raise AssertionError(f"{name}: no valid value for parameter {param.name!r}")
    return args


def test_the_exclusions_name_public_callables():
    assert set(_NOT_WALKED) | set(_FINITE_AT_BIG) <= set(vars(wpkernel))


@pytest.mark.parametrize("name,function", list(_walked()), ids=[name for name, _ in _walked()])
def test_hostile_points_raise_typed_errors(name, function):
    params = inspect.signature(function).parameters
    hostile = [p for p in params if p in _HOSTILE]
    failures = []
    for pot in _POTENTIALS.get(name, [_GIN, _ELL] if "pot" in params else [_ELL]):
        args = _arguments(name, params, pot)
        function(**args)  # the valid arguments are valid
        for param in hostile:
            for bad in _HOSTILE[param]:
                if bad is BIG and name in _FINITE_AT_BIG:
                    continue
                try:
                    got = function(**{**args, param: bad})
                except _TYPED:
                    continue
                except Exception as exc:  # noqa: BLE001 - any other type is the failure reported
                    got = exc
                failures.append(f"{name}({param}={bad!r}) with {pot.name}: {got!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("pot", [_GIN, _ELL, wpkernel.make_radial(RADIAL_PROFILES["quartic"])],
                         ids=lambda pot: pot.name)
def test_exact_layer_hostile_points_raise_typed_errors(pot):
    # the exact layer of each family, pot.exact_source(n): kernel at a hostile
    # z or w, and the root terms at a hostile root, with every warning an
    # error.  value_error is not called: it reads z only after a walk at z
    # has checked it
    src = pot.exact_source(12)
    calls = {"kernel(z=.)": lambda p: src.kernel(p, 0.5),
             "kernel(w=.)": lambda p: src.kernel(0.5, p),
             "log_one_point": src.log_one_point, "lap_log_kernel": src.lap_log_kernel}
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label, call in calls.items():
            call(_VALID["z"])  # the valid point is valid
            for bad in _HOSTILE["z"]:
                try:
                    got = call(bad)
                except _TYPED:
                    continue
                except Exception as exc:  # noqa: BLE001 - any other type is the failure reported
                    got = exc
                failures.append(f"{type(src).__name__}.{label} at {bad!r}: {got!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("value, ok", [
    (0, True), (3, True), (2 ** 70, True), (-1, False), (True, True), (False, True),
    (np.int64(3), True), (np.uint8(2), True), (np.int32(-2), False), (np.bool_(True), False),
    (3.0, False), (1.5, False), (math.nan, False), (math.inf, False), ("3", False), (None, False),
])
def test_check_index_takes_integers_only(value, ok):
    # a plain int takes a shortcut past the abc check; bool and numpy
    # integers still pass through it, and floats, NaN and numpy bools fail it
    if ok:
        errors.check_index(value, "index", 0)
    else:
        with pytest.raises(errors.DomainError):
            errors.check_index(value, "index", 0)
