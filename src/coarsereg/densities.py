"""Measurement-error density abstraction.

The contamination law enters every estimator only through its density, the
density's low-order derivatives, and its characteristic function, so those
three evaluations are the whole surface here. Built-in families (Gaussian,
Laplace, Uniform) carry closed forms; custom densities supply callables and
are validated eagerly (normalization, symmetry, nonnegativity). The mass is
checked by the oracle's adaptive Simpson rule over equal rows of the
validation window, each refined on its own, so a jump costs only its row;
the pdf is called with 1-D float arrays.

Characteristic-function convention: cf(t) integrates density(u) * exp(i t u)
over u, which is real and even for the symmetric densities handled here.

Every kernel exponential (``pdf``, its derivatives, the NW kernel) is
:func:`_exp_into`: ``np.exp``'s bits, off its slow subnormal path. The
Gaussian ``pdf`` and the NW kernel share :func:`_gauss_exp_into`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MissingCFError, UnsupportedDerivativeError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# np.exp leaves its vector fast path for arguments below about -708, where
# results turn subnormal, and runs 15-180x slower there (numpy 2.4, AVX-512);
# -700 keeps a margin.
_EXP_FAST_MIN = -700.0
# exp(a) <= 2**-1075, half the smallest subnormal, rounds to exactly 0 at and
# below this argument, so only the band [_EXP_ZERO, _EXP_FAST_MIN) needs an
# exact recomputation.
_EXP_ZERO = -1075.0 * math.log(2.0)

# Custom densities are validated by quadrature over [-VALIDATION_SPAN*scale,
# +VALIDATION_SPAN*scale]; the mass outside must be below the tolerance.
_VALIDATION_SPAN = 50.0
_VALIDATION_TOL = 1e-6
# The window is split into this many equal rows, each doubling its Simpson
# nodes on its own, so a jump costs only the row that holds it. At 256 rows a
# 20-step histogram read a mass error of about 6e-5 and was rejected; at
# 1024 rows it read 5e-9.
_VALIDATION_ROWS = 1024
# Per-row convergence tolerance: the rows' errors together stay a tenth of
# the mass tolerance.
_VALIDATION_ROW_TOL = _VALIDATION_TOL / (10 * _VALIDATION_ROWS)

# Largest imaginary part an error CF may carry, relative to its largest
# modulus; the Fourier inversion holds an error CF's odd part to it too.
CF_TOL = 1e-8


def _real_cf(values, source: str, *, even: bool = False) -> np.ndarray:
    """CF ``values`` as floats. A ValueError naming ``source`` refuses them
    if their imaginary part, or with ``even`` their odd part on a symmetric
    grid, exceeds ``CF_TOL`` times their largest modulus."""
    v = np.asarray(values)
    top = float(np.max(np.abs(v), initial=0.0))
    for name, part in (("an imaginary", v.imag), ("an odd", (v - v[::-1]) / 2.0 if even else 0.0)):
        worst = float(np.max(np.abs(part), initial=0.0))
        if worst > CF_TOL * top:
            raise ValueError(f"{source} has {name} part of {worst:.3e}, beyond {CF_TOL:g} "
                             f"times its largest modulus {top:.3e}: an error CF is real and even")
    return np.asarray(v.real, dtype=float)


def _exp_into(arg: np.ndarray, lower: float = -math.inf) -> np.ndarray:
    """``np.exp(arg)``, bit for bit, in place in the float array ``arg``;
    lanes below ``_EXP_FAST_MIN`` are clamped, zeroed after the exp and, in
    the subnormal band, recomputed apart. A caller that knows a ``lower``
    bound of ``arg`` at or above ``_EXP_FAST_MIN`` saves the pass that looks
    for such lanes. The bound needs no margin of its own: the bits are
    ``np.exp``'s on either path, and a bound off by a rounding still leaves
    every lane within the 8 units between ``_EXP_FAST_MIN`` and the fast
    path's edge, so it can cost no speed either."""
    if not lower >= _EXP_FAST_MIN and arg.min(initial=0.0) < _EXP_FAST_MIN:
        keep = arg >= _EXP_FAST_MIN
        band = np.flatnonzero((arg >= _EXP_ZERO) & ~keep)
        band_arg = arg.flat[band]
        np.maximum(arg, _EXP_FAST_MIN, out=arg)
        np.exp(arg, out=arg)
        # a bool multiply zeroes the clamped lanes faster than a masked copy
        np.multiply(arg, keep, out=arg)
        arg.flat[band] = np.exp(band_arg)
    else:
        np.exp(arg, out=arg)
    return arg


def _gauss_exp_into(u: np.ndarray, s: float, span: float) -> np.ndarray:
    """``exp(-0.5 * (u / s)**2)`` in place in the float array ``u``, whose
    entries are at most ``span`` in absolute value. Offsets beyond about
    1.3e154 * s square to inf, whose exp is the right 0, so that overflow is
    not reported."""
    with np.errstate(over="ignore"):
        np.divide(u, s, out=u)
        np.square(u, out=u)
    np.multiply(u, -0.5, out=u)
    # the same roundings on span, which are monotone, bound every lane
    q = span / s
    return _exp_into(u, -0.5 * (q * q))


@dataclass(frozen=True)
class ErrorDensity:
    """A symmetric contamination density with optional derivatives and CF.

    Construct through the classmethods :meth:`gaussian`, :meth:`laplace`,
    :meth:`uniform` or :meth:`custom`; the raw constructor is not part of
    the public surface.

    Attributes
    ----------
    kind : str
        One of ``"gaussian"``, ``"laplace"``, ``"uniform"``, ``"custom"``.
    scale : float
        sigma, the Laplace scale, or the uniform half-width; for custom
        densities a characteristic length used in validation windows.
    cf_decay : float or None
        Polynomial decay exponent of the CF (|cf(t)| ~ |t|**-cf_decay), when
        that decay model applies. Laplace carries 2.0; Gaussian decays
        faster than any polynomial and Uniform's CF oscillates through
        zero, so both carry None.
    """

    kind: str
    scale: float
    cf_decay: Optional[float] = None
    _pdf: Optional[Callable] = None
    _pdf_deriv: Optional[Callable] = None
    _cf: Optional[Callable] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def gaussian(cls, sigma: float) -> "ErrorDensity":
        return cls._checked("sigma", sigma, kind="gaussian")

    @classmethod
    def laplace(cls, b: float) -> "ErrorDensity":
        return cls._checked("scale", b, kind="laplace", cf_decay=2.0)

    @classmethod
    def uniform(cls, half_width: float) -> "ErrorDensity":
        return cls._checked("half-width", half_width, kind="uniform")

    @classmethod
    def _checked(cls, name: str, scale: float, **fields) -> "ErrorDensity":
        """The built-in density of ``fields`` at ``scale``, which must be
        finite and positive with a finite peak pdf(0): an infinite peak gives
        infinite kernel averages, which pass the degeneracy threshold."""
        if not 0 < scale < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {scale}")
        norm = _SQRT_2PI if fields["kind"] == "gaussian" else 2.0  # pdf(0) = 1 / (norm * scale)
        if 1.0 / (norm * float(scale)) == math.inf:
            raise ValueError(f"{name} {scale} is too small: the peak density overflows")
        return cls(scale=float(scale), **fields)

    @classmethod
    def custom(
        cls,
        pdf: Callable,
        *,
        deriv: Optional[Callable] = None,
        cf: Optional[Callable] = None,
        cf_decay: Optional[float] = None,
        scale: float = 1.0,
    ) -> "ErrorDensity":
        """Wrap a user density.

        Parameters
        ----------
        pdf : callable
            Vectorized density ``pdf(u)``; validation calls it with 1-D
            float arrays.
        deriv : callable, optional
            Derivative evaluator ``deriv(u, order)`` for order >= 1.
        cf : callable, optional
            Characteristic function ``cf(t)`` (real-valued).
        cf_decay : float, optional
            Polynomial CF decay exponent; required for the density to
            participate in Fourier-cutoff selection.
        scale : float
            Characteristic length; validation integrates over
            ``50 * scale`` on each side, split into 1024 equal rows that
            each double their Simpson nodes until they converge. A row
            holding a jump doubles to the rule's cap of 2**20 intervals, so
            each jump costs about 2**21 pdf evaluations.
        """
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {scale}")
        d = cls(
            kind="custom",
            scale=float(scale),
            cf_decay=cf_decay,
            _pdf=pdf,
            _pdf_deriv=deriv,
            _cf=cf,
        )
        d._validate_custom()
        return d

    def _validate_custom(self):
        # imported here, as simulation imports this module
        from .simulation import _simpson_adaptive

        span = _VALIDATION_SPAN * self.scale
        probe = np.linspace(-span, span, 257)
        vals = np.asarray(self._pdf(probe), dtype=float)
        if np.any(vals < 0):
            raise ValueError("custom density takes negative values")
        if not np.allclose(vals, np.asarray(self._pdf(-probe), dtype=float)):
            raise ValueError("custom density is not symmetric")
        edges = np.linspace(-span, span, _VALIDATION_ROWS + 1)

        def on_rows(rows, m):
            nodes = np.linspace(edges[rows], edges[rows + 1], m + 1, axis=1)
            return np.asarray(self._pdf(nodes.ravel()), dtype=float).reshape(nodes.shape)

        mass = float(_simpson_adaptive(on_rows, edges[:-1], edges[1:], _VALIDATION_ROW_TOL).sum())
        if not abs(mass - 1.0) <= _VALIDATION_TOL:
            raise ValueError(
                f"custom density integrates to {mass:.8f}, not 1 within {_VALIDATION_TOL}"
            )

    # -- evaluation --------------------------------------------------------

    def pdf(self, u):
        """Density value at ``u`` (scalar or array). Total function.

        The uniform density takes the boundary value 1/(2a) at |u| == a, so
        ratio estimators stay well-defined when an offset lands exactly on
        the support edge.
        """
        out = self._pdf_into(np.array(u, dtype=float))
        return out if out.ndim else float(out)

    def _pdf_into(self, u, span=math.inf):
        """:meth:`pdf` of the float array ``u``, whose entries are at most
        ``span`` in absolute value, which a built-in kind overwrites with the
        result and returns; a custom density returns its own array, which the
        caller must not write to."""
        if self.kind == "gaussian":
            s = self.scale
            return np.divide(_gauss_exp_into(u, s, span), s * _SQRT_2PI, out=u)
        if self.kind == "laplace":
            b = self.scale
            np.abs(u, out=u)
            # the bits of (-|u|) / b; beyond about 1.8e308 * b it is -inf,
            # whose exp is the right 0, so that overflow is not reported
            with np.errstate(over="ignore"):
                np.divide(u, -b, out=u)
            np.divide(_exp_into(u, -(span / b)), 2.0 * b, out=u)
            return u
        if self.kind == "uniform":
            a = self.scale
            np.abs(u, out=u)
            np.less_equal(u, a, out=u)
            np.divide(u, 2.0 * a, out=u)  # 1 / (2a) inside, 0 outside
            return u
        return np.asarray(self._pdf(u), dtype=float)

    def pdf_derivative(self, u, order: int = 1):
        """Derivative of the density at ``u``, order in {0, 1, 2}.

        The Laplace first derivative at u == 0 is defined as 0 (midpoint of
        the one-sided limits); the value is excluded from gradient checks.

        Raises
        ------
        UnsupportedDerivativeError
            For the uniform density with order >= 1, or a custom density
            without a supplied derivative.
        """
        if order not in (0, 1, 2):
            raise UnsupportedDerivativeError(f"order must be 0, 1 or 2, got {order}")
        if order == 0:
            return self.pdf(u)
        u = np.asarray(u, dtype=float)
        if self.kind == "gaussian":
            s2 = self.scale**2
            f = np.asarray(self.pdf(u))
            out = -(u / s2) * f if order == 1 else (u**2 / s2 - 1.0) / s2 * f
        elif self.kind == "laplace":
            b = self.scale
            f = np.asarray(self.pdf(u))
            if order == 1:
                out = np.where(u == 0, 0.0, -np.sign(u) * f / b)
            else:
                out = f / b**2
        elif self.kind == "uniform":
            raise UnsupportedDerivativeError("uniform density is not differentiable")
        else:
            if self._pdf_deriv is None:
                raise UnsupportedDerivativeError(
                    "custom density was built without a derivative"
                )
            out = np.asarray(self._pdf_deriv(u, order), dtype=float)
        return out if out.ndim else float(out)

    def cf(self, t):
        """Characteristic function at ``t`` (real-valued, even, cf(0) == 1).

        Raises
        ------
        MissingCFError
            For a custom density built without a CF.
        ValueError
            If a custom CF's imaginary part exceeds ``CF_TOL`` of its modulus.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            out = np.exp(-0.5 * (self.scale * t) ** 2)
        elif self.kind == "laplace":
            out = 1.0 / (1.0 + (self.scale * t) ** 2)
        elif self.kind == "uniform":
            # sin(at)/(at) with the t == 0 limit; np.sinc(x) = sin(pi x)/(pi x)
            out = np.sinc(self.scale * t / np.pi)
        else:
            if self._cf is None:
                raise MissingCFError("custom density was built without a CF")
            out = _real_cf(self._cf(t), "custom density's CF")
        return out if out.ndim else float(out)

    @property
    def variance(self) -> float:
        """Variance of the error law (built-in kinds only)."""
        if self.kind == "gaussian":
            return self.scale**2
        if self.kind == "laplace":
            return 2.0 * self.scale**2
        if self.kind == "uniform":
            return self.scale**2 / 3.0
        raise ValueError("variance is not tracked for custom densities")

    def describe(self) -> str:
        return f"{self.kind}:{self.scale:g}"
