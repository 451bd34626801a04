"""Complex Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

Evaluated by ``scipy.special.wofz``, which wraps S. G. Johnson's Faddeeva
package (a continued fraction for large |z|, Zaghloul & Ali's Algorithm 916
elsewhere) to near machine precision over the upper half plane.  Every Voigt
profile in the toolkit funnels through this one function.

``wofz`` is elementwise and releases the GIL, so an input of at least
``SPLIT_MIN_POINTS`` points is cut into one contiguous chunk per CPU in the
process's affinity mask; the calling thread computes one chunk and a
process-wide thread pool the others, all into one output array.  Every
element still comes from the same ``wofz``, so the result is bit-identical to
one call.  Smaller inputs are one plain ``wofz`` call.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import wofz

_SQRT_PI = np.sqrt(np.pi)
# ~13 ms of wofz: per-chunk dispatch (tens of microseconds) stays negligible,
# and the many small per-slice calls of a field scan are never split
SPLIT_MIN_POINTS = 1 << 16

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="faddeeva")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads, and
    # the lock as the forking thread saw it
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def faddeeva(z):
    """Evaluate w(z) elementwise; requires Im z >= 0.

    Relative accuracy is better than 1e-12 over the upper half plane
    (unit-tested against mpmath at scattered points).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < -1e-300):
        raise ValueError("faddeeva() is only valid for Im z >= 0")
    if z.size < SPLIT_MIN_POINTS or not z.flags.c_contiguous:
        return wofz(z)
    chunks = _usable_cpus()
    if chunks < 2:
        return wofz(z)
    out = np.empty_like(z)
    z_flat, out_flat = z.reshape(-1), out.reshape(-1)
    bounds = [z.size * i // chunks for i in range(chunks + 1)]
    pool = _workers()
    pending = [
        pool.submit(wofz, z_flat[a:b], out=out_flat[a:b])
        for a, b in zip(bounds[1:-1], bounds[2:])
    ]
    wofz(z_flat[: bounds[1]], out=out_flat[: bounds[1]])
    for job in pending:
        job.result()
    return out


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
