"""Complex Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, in numpy.

Each point's method follows from its own z, so no split of the input moves a
bit.  With z = x + iy:

- y < ``DAWSON_HEIGHT`` and |z| < ``WING_RADIUS``: w = exp(-z^2) + (2i/sqrt(pi))
  F(z), with F the Dawson function, from its Taylor series about the nearest
  node x0 = k / ``NODES_PER_UNIT``, one Horner pass over the node's row of
  data/dawson_taylor.txt (scripts/faddeeva_table.py).  The coefficients are
  real, so Im F, and with it Re w, comes out proportional to y: the small real
  part near the real axis has no cancellation.  S. G. Johnson's Faddeeva
  package (``scipy.special.wofz``) also takes Im w through F on the real axis.
- y >= ``DAWSON_HEIGHT`` and |z| < ``WING_RADIUS``: Weideman's rational form
  with ``WEIDEMAN_TERMS`` terms (SIAM J. Numer. Anal. 31, 1497 (1994)), its
  coefficients from one FFT at import.  It loses Re w near the real axis,
  which the Dawson band covers.
- ``WING_RADIUS`` <= |z| < 1e20: the Laplace continued fraction
  (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...)))) cut after
  ``FRACTION_DEPTH`` levels (Gautschi, SIAM J. Numer. Anal. 7, 187 (1970)), as
  a ratio of polynomials in z^2 by Horner's rule, unmasked over the whole
  array; the other methods then overwrite their points.
- |z| >= 1e20: i / (sqrt(pi) z).  Non-finite z gives w's limit 0, and NaN
  where z holds a NaN.

Every Voigt profile funnels through this module, on its caller's thread.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
from numpy.polynomial import Polynomial

_SQRT_PI = np.sqrt(np.pi)
# |z| from which w is the continued fraction, and the smallest depth whose
# truncation error there lies below rounding (tests/test_faddeeva.py)
WING_RADIUS = 7.0
FRACTION_DEPTH = 12
# Im z below which w goes through the Dawson table, whose nodes lie
# 1 / NODES_PER_UNIT apart on the real axis
DAWSON_HEIGHT = 0.1
NODES_PER_UNIT = 50
WEIDEMAN_TERMS = 40
# |z| from which w is i / (sqrt(pi) z): the fraction's denominator, of degree
# 13, would overflow
_FAR = 1e20


def _fraction(depth: int):
    """(i/sqrt(pi)) A and B, in powers of u = z^2 from the highest, such that
    the fraction cut after an even ``depth`` is (i/sqrt(pi)) A(u) / (z B(u)):
    Wallis' recurrence, exact, as every coefficient is a dyadic rational."""
    z = Polynomial([0.0, 1.0])
    a, a_prev, b, b_prev = Polynomial(1.0), Polynomial(0.0), z, Polynomial(1.0)
    for k in range(1, depth + 1):
        a, a_prev, b, b_prev = z * a - k / 2 * a_prev, a, z * b - k / 2 * b_prev, b
    return 1j / _SQRT_PI * a.coef[::-2], b.coef[::-2]


def _dawson_columns():
    """The table's coefficient columns, the highest power first, each over the
    nodes x0 = -last .. last; F is odd, so c_k(-x0) = (-1)^(k+1) c_k(x0)."""
    with resources.files("atompairs.data").joinpath("dawson_taylor.txt").open() as fh:
        rows = np.loadtxt(fh)
    signs = np.where(np.arange(rows.shape[1]) % 2, 1.0, -1.0)
    return np.concatenate([rows[:0:-1] * signs, rows]).T[::-1].copy()


def _weideman(terms: int):
    """L and the coefficients a_terms .. a_1 of w(z) = 2 p(Z) / (L - iz)^2 +
    (1/sqrt(pi)) / (L - iz), p(Z) = sum a_n Z^(n-1), Z = (L + iz) / (L - iz)."""
    m = 2 * terms
    length = np.sqrt(terms / np.sqrt(2.0))
    t = length * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-(t**2)) * (length**2 + t**2)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return length, a[terms:0:-1].copy()


_NUMERATOR, _DENOMINATOR = _fraction(FRACTION_DEPTH)
_DAWSON = _dawson_columns()
_LAST_NODE = (_DAWSON.shape[1] - 1) // 2
_L, _RATIONAL = _weideman(WEIDEMAN_TERMS)


def _horner(coefficients, u, out):
    out[...] = coefficients[0]
    for c in coefficients[1:]:
        out *= u
        out += c


def _dawson_band(z):
    """w at |z| < WING_RADIUS, 0 <= Im z < DAWSON_HEIGHT."""
    k = np.rint(z.real * NODES_PER_UNIT)
    d = z - k / NODES_PER_UNIT
    node = k.astype(np.intp)
    node += _LAST_NODE
    f = _DAWSON[0].take(node).astype(complex)
    for column in _DAWSON[1:]:
        f *= d
        f += column.take(node)
    f *= 2j / _SQRT_PI
    w = np.exp(-np.square(z))
    w += f
    return w


def _rational(z):
    """w at |z| < WING_RADIUS, Im z >= DAWSON_HEIGHT."""
    den = _L - 1j * z
    p = np.empty_like(z)
    _horner(_RATIONAL, (_L + 1j * z) / den, p)
    p *= 2.0
    p /= den
    p += 1.0 / _SQRT_PI
    p /= den
    return p


def faddeeva(z, out=None):
    """Evaluate w(z) elementwise; requires Im z >= 0.

    Relative accuracy is better than 1e-13 over the upper half plane
    (unit-tested against mpmath and ``wofz``).  ``out``, a complex array of
    z's shape, receives w and is returned; it may be ``z`` itself.
    """
    z = np.asarray(z, dtype=complex)
    if z.imag.min(initial=0.0) < -1e-300:
        raise ValueError("faddeeva() is only valid for Im z >= 0")
    out = np.empty_like(z) if out is None else out
    r = np.abs(z)
    core = r < WING_RADIUS  # no NaN
    far = ~(r < _FAR)  # the huge, the infinite and the NaN
    del r
    # gathered before out, which may be z, is overwritten
    near, huge = z[core], z[far]
    with np.errstate(all="ignore"):
        # the fraction at every point, the others overwritten below
        u, den = np.square(z), np.empty_like(z)
        _horner(_DENOMINATOR, u, den)
        den *= z  # the last read of z
        _horner(_NUMERATOR, u, out)
        out /= den
        del u, den
        w_far = (1j / _SQRT_PI) / huge
    w_far[np.isinf(huge) & ~np.isnan(huge)] = 0.0
    upper = near.imag >= DAWSON_HEIGHT
    # every preset's core lies in the band, and there a split's gathers and
    # scatters would cost more than the band itself; taking the band over a
    # core that lies above it and overwriting would cost more than the split:
    # spectrum --buffer-MHz 100 --spacing-MHz 0.1 spent 8.8 -> 11.1 ms here
    if upper.any():
        w = np.empty_like(near)
        w[upper] = _rational(near[upper])
        upper ^= True
        w[upper] = _dawson_band(near[upper])
    else:
        w = _dawson_band(near)
    out[core] = w
    out[far] = w_far
    return out


def voigt_profile_complex(delta_hz, lorentz_fwhm_hz, gauss_sigma_hz, out=None):
    """Complex Voigt response sqrt(pi) * w(z) / sigma_omega on a detuning grid.

    ``delta_hz`` is (nu - nu0) in Hz, ``lorentz_fwhm_hz`` the full Lorentzian
    width (natural + collisional), ``gauss_sigma_hz`` the 1/e Doppler
    half-width nu0*u/c in Hz.  The real part is the absorption profile, the
    imaginary part the matching dispersion; the susceptibility of a line is
    i * (line factor) * this profile.  ``out``, a complex array of the
    broadcast shape, holds z and then the profile, and is returned.
    """
    sigma_w = 2.0 * np.pi * gauss_sigma_hz
    gamma = np.pi * lorentz_fwhm_hz  # angular HWHM
    delta = np.asarray(delta_hz, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(delta.shape, np.shape(sigma_w), np.shape(gamma)), dtype=complex)
    # z = (2 pi delta + i gamma) / sigma_w; the widths are scaled before they
    # broadcast, so the full detuning array is touched twice, not five times
    z = np.multiply(delta, 2.0 * np.pi / sigma_w, out=out)
    z += 1j * (gamma / sigma_w)
    w = faddeeva(z, out=z)
    w *= _SQRT_PI / sigma_w
    return w
