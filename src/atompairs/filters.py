"""Vapor cell between crossed polarizers, a dichroic passband, and figures of merit.

A Faraday filter is the crossed-polarizer projection of the cell transfer;
the induced-dichroism filter is phenomenological (centre, width, peak, floor)
since only its passband parameters matter downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from atompairs.atoms import AtomLibrary
from atompairs.errors import ConfigError, CoverageError, NumericError
from atompairs.vapor import VaporCellConfig, VaporPath, make_frequency_grid


@dataclass(frozen=True)
class FilterSpectrum:
    """Intensity transmission ``fn(nu)``, sampled once on ``grid_hz`` as
    ``transmission``; a call evaluates ``fn``."""

    grid_hz: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]
    transmission: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grid_hz", np.asarray(self.grid_hz, dtype=float))
        if self.grid_hz.size >= 2 and np.any(np.diff(self.grid_hz) <= 0):
            raise ConfigError("filter grid must be strictly increasing")
        t = self.fn(self.grid_hz)
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-9):
            raise ValueError("transmission must lie in [0, 1]")
        object.__setattr__(self, "transmission", t)

    def __call__(self, nu_hz):
        return self.fn(np.atleast_1d(np.asarray(nu_hz, dtype=float)))


def mirrored_transmission(spec: FilterSpectrum, nu0_hz: float) -> np.ndarray:
    """T(2 nu0 - nu) at every grid frequency nu of ``spec``.

    Where the reflected frequency is itself a grid point (bit for bit), its
    transmission is read off ``spec``'s samples; only the rest goes through
    ``spec``.  On a uniform grid with nu0 = grid[i0] the mirror of index k is 2 i0 - k.
    """
    grid = spec.grid_hz
    reflected = 2 * nu0_hz - grid
    j = 2 * np.searchsorted(grid, nu0_hz) - np.arange(grid.size)
    on_grid = (j >= 0) & (j < grid.size)
    on_grid[on_grid] = grid[j[on_grid]] == reflected[on_grid]
    mirror = np.empty_like(reflected)
    mirror[on_grid] = spec.transmission[j[on_grid]]
    mirror[~on_grid] = spec(reflected[~on_grid])
    return mirror


@dataclass(frozen=True)
class FilterMetrics:
    t_max: float
    peak_hz: float
    fwhm_hz: float
    enbw_hz: float
    rejection_db: float


def fadof_spectrum(
    cell: VaporCellConfig,
    b_field_t: float,
    extinction: float,
    grid_hz: np.ndarray,
    atoms: AtomLibrary,
) -> FilterSpectrum:
    """Faraday filter: the cell between crossed polarizers, ``extinction``
    being their crossed-channel intensity leakage, sampled on ``grid_hz``."""
    if not 0.0 <= extinction < 1.0:
        raise ConfigError("extinction ratio must lie in [0, 1)")
    path = VaporPath(atoms, cell, b_field_t, slices=16)

    def fn(nu):
        t_plus, t_minus = path.transfer_at(nu)
        crossed = np.abs(t_plus - t_minus) ** 2 / 4.0
        parallel = np.abs(t_plus + t_minus) ** 2 / 4.0
        return np.clip(crossed + extinction * parallel, 0.0, 1.0)

    return FilterSpectrum(grid_hz, fn)


def filter_metrics(spec: FilterSpectrum, passband_window_hz=None) -> FilterMetrics:
    """T_max, FWHM of the tallest connected peak, ENBW and worst rejection.

    ``passband_window_hz`` is the (lo, hi) window regarded as the passband;
    rejection is the worst transmission outside it.  Default: peak +- 3 GHz.
    """
    grid = spec.grid_hz
    t = spec.transmission
    i_max = int(np.argmax(t))
    t_max = float(t[i_max])
    if t_max <= 0:
        raise NumericError("spectrum has no transmission anywhere on its grid; its metrics are undefined")
    if i_max in (0, t.size - 1):
        raise CoverageError("tallest peak sits on the grid edge; widen the grid")

    half = t_max / 2.0
    # walk outward from the peak to the half-max crossings of this peak only
    i_lo = i_max
    while i_lo > 0 and t[i_lo] > half:
        i_lo -= 1
    i_hi = i_max
    while i_hi < t.size - 1 and t[i_hi] > half:
        i_hi += 1
    if t[i_lo] > half or t[i_hi] > half:
        raise CoverageError("half-maximum crossing truncated by the grid edge")

    def crossing(i_out, i_in):
        t0, t1 = t[i_out], t[i_in]
        f0, f1 = grid[i_out], grid[i_in]
        return f0 + (half - t0) * (f1 - f0) / (t1 - t0)

    lo = crossing(i_lo, i_lo + 1)
    hi = crossing(i_hi, i_hi - 1)
    fwhm = hi - lo

    enbw = float(np.trapezoid(t, grid) / t_max)
    # estimate the un-integrated wings: far from all lines the crossed
    # transmission falls like the rotation squared, ~ detuning^-4, so the
    # tail beyond each edge integrates to roughly T_edge * span_edge / 3
    half_span = 0.5 * (grid[-1] - grid[0])
    tail = (t[0] + t[-1]) * half_span / 3.0
    if tail > 0.01 * enbw * t_max:
        warnings.warn(
            f"grid edges leave ~{tail / (enbw * t_max):.1%} of the integral "
            "outside; ENBW may be truncated",
            stacklevel=2,
        )

    peak_hz = float(grid[i_max])
    if passband_window_hz is None:
        passband_window_hz = (peak_hz - 3e9, peak_hz + 3e9)
    outside = (grid < passband_window_hz[0]) | (grid > passband_window_hz[1])
    if not np.any(outside):
        raise CoverageError("passband window holds the whole grid; no stopband to reject")
    worst = float(t[outside].max())
    rejection_db = float("inf") if worst <= 0 else -10.0 * np.log10(worst)

    return FilterMetrics(
        t_max=t_max,
        peak_hz=peak_hz,
        fwhm_hz=float(fwhm),
        enbw_hz=enbw,
        rejection_db=rejection_db,
    )


def dichroic_filter(
    center_hz: float,
    fwhm_hz: float,
    peak_transmission: float,
    rejection_db: float,
    grid_hz: np.ndarray | None = None,
) -> FilterSpectrum:
    """Phenomenological passband: Lorentzian peak over an out-of-band floor."""
    if fwhm_hz <= 0:
        raise ConfigError("fwhm must be > 0")
    if not 0.0 < peak_transmission <= 0.25:
        raise ConfigError("peak transmission must lie in (0, 0.25]")
    floor = 10.0 ** (-rejection_db / 10.0) if np.isfinite(rejection_db) else 0.0

    def fn(nu):
        lor = 1.0 / (1.0 + (2.0 * (np.asarray(nu, float) - center_hz) / fwhm_hz) ** 2)
        return np.maximum(peak_transmission * lor, floor)

    if grid_hz is None:
        grid_hz = make_frequency_grid(center_hz, half_span_hz=5e9, spacing_hz=1e6)
    return FilterSpectrum(grid_hz, fn)
