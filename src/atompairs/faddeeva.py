"""Complex Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

Each point's method follows from its own z, so no split of the input moves a
bit.  From |z| = ``WING_RADIUS`` on, w is the Laplace continued fraction
(i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...)))) cut after
``FRACTION_DEPTH`` levels (Gautschi, SIAM J. Numer. Anal. 7, 187 (1970)), as a
ratio of polynomials in z^2 by Horner's rule, unmasked over the whole array:
a quarter of the cost of ``scipy.special.wofz`` (S. G. Johnson's Faddeeva
package), which then overwrites every other point, non-finite ones included.
Every Voigt profile funnels through this module, on its caller's thread.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import wofz

_SQRT_PI = np.sqrt(np.pi)
# |z| from which w is the continued fraction, and the smallest depth whose
# truncation error there lies below rounding (tests/test_faddeeva.py)
WING_RADIUS = 7.0
FRACTION_DEPTH = 12


def _fraction(depth: int):
    """(i/sqrt(pi)) A and B, in powers of u = z^2 from the highest, such that
    the fraction cut after an even ``depth`` is (i/sqrt(pi)) A(u) / (z B(u)):
    Wallis' recurrence, exact, as every coefficient is a dyadic rational."""
    z = Polynomial([0.0, 1.0])
    a, a_prev, b, b_prev = Polynomial(1.0), Polynomial(0.0), z, Polynomial(1.0)
    for k in range(1, depth + 1):
        a, a_prev, b, b_prev = z * a - k / 2 * a_prev, a, z * b - k / 2 * b_prev, b
    return 1j / _SQRT_PI * a.coef[::-2], b.coef[::-2]


_NUMERATOR, _DENOMINATOR = _fraction(FRACTION_DEPTH)


def _horner(coefficients, u, out):
    out[...] = coefficients[0]
    for c in coefficients[1:]:
        out *= u
        out += c


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
    # past |z| = 1e20 the degree-13 denominator would overflow
    core = ~((r >= WING_RADIUS) & (r < 1e20))
    del r
    w = z[core]  # gathered: wofz(where=) in place corrupts the heap (scipy 1.17)
    # the fraction at every point, the core's overwritten below
    with np.errstate(all="ignore"):
        u, den = np.square(z), np.empty_like(z)
        _horner(_DENOMINATOR, u, den)
        den *= z  # the last read of z
        _horner(_NUMERATOR, u, out)
        out /= den
    out[core] = wofz(w, out=w)
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
