"""Complex Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

Evaluated by ``scipy.special.wofz``, which wraps S. G. Johnson's Faddeeva
package (a continued fraction for large |z|, Zaghloul & Ali's Algorithm 916
elsewhere) to near machine precision over the upper half plane.  Every Voigt
profile in the toolkit funnels through this one function.
"""

from __future__ import annotations

import numpy as np
from scipy.special import wofz

_SQRT_PI = np.sqrt(np.pi)


def faddeeva(z):
    """Evaluate w(z) elementwise; requires Im z >= 0.

    Relative accuracy is better than 1e-12 over the upper half plane
    (unit-tested against mpmath at scattered points).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < -1e-300):
        raise ValueError("faddeeva() is only valid for Im z >= 0")
    return wofz(z)


def voigt_profile_complex(delta_hz, lorentz_fwhm_hz, gauss_sigma_hz):
    """Complex Voigt response sqrt(pi) * w(z) / sigma_omega on a detuning grid.

    ``delta_hz`` is (nu - nu0) in Hz, ``lorentz_fwhm_hz`` the full Lorentzian
    width (natural + collisional), ``gauss_sigma_hz`` the 1/e Doppler
    half-width nu0*u/c in Hz.  The real part is the absorption profile, the
    imaginary part the matching dispersion; the susceptibility of a line is
    i * (line factor) * this profile.
    """
    sigma_w = 2.0 * np.pi * gauss_sigma_hz
    gamma = np.pi * lorentz_fwhm_hz  # angular HWHM
    # z = (2 pi delta + i gamma) / sigma_w; the widths are scaled before they
    # broadcast, so the full detuning array is touched twice, not five times
    z = np.asarray(delta_hz, dtype=float) * (2.0 * np.pi / sigma_w) + 1j * (gamma / sigma_w)
    w = faddeeva(z)
    w *= _SQRT_PI / sigma_w
    return w
