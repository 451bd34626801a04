"""Filter assemblies: vapor cell between polarizers, and figures of merit.

A Faraday filter is the crossed-polarizer projection of the cell transfer;
the induced-dichroism filter is phenomenological (centre, width, peak, floor)
since only its passband parameters matter downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from atompairs.atoms import AtomLibrary
from atompairs.errors import ConfigError, CoverageError
from atompairs.vapor import VaporCellConfig, VaporPath, make_frequency_grid


@dataclass(frozen=True)
class PolarizerPair:
    """Input/output polarizers around the cell; ``extinction`` is the
    crossed-channel intensity leakage."""

    extinction: float = 1.8e-6
    angle_rad: float = np.pi / 2  # pi/2 crossed, 0 parallel

    def __post_init__(self):
        if not 0.0 <= self.extinction < 1.0:
            raise ConfigError("extinction ratio must lie in [0, 1)")


@dataclass(frozen=True)
class FilterSpectrum:
    """Intensity transmission on a grid, with optional exact evaluator."""

    grid_hz: np.ndarray
    transmission: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid_hz, dtype=float)
        if grid.size >= 2 and np.any(np.diff(grid) <= 0):
            raise ConfigError("filter grid must be strictly increasing")
        t = np.asarray(self.transmission, dtype=float)
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-9):
            raise ValueError("transmission must lie in [0, 1]")

    def __call__(self, nu_hz):
        nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
        if self.fn is not None:
            return self.fn(nu)
        if nu.min() < self.grid_hz[0] or nu.max() > self.grid_hz[-1]:
            raise CoverageError("frequency outside the filter grid")
        return np.interp(nu, self.grid_hz, self.transmission)


@dataclass(frozen=True)
class FilterMetrics:
    t_max: float
    peak_hz: float
    fwhm_hz: float
    enbw_hz: float
    rejection_db: float


def _fadof_transmission(t_plus, t_minus, pol: PolarizerPair):
    crossed = np.abs(t_plus - t_minus) ** 2 / 4.0
    parallel = np.abs(t_plus + t_minus) ** 2 / 4.0
    if abs(pol.angle_rad - np.pi / 2) < 1e-12:
        through, blocked = crossed, parallel
    elif abs(pol.angle_rad) < 1e-12:
        through, blocked = parallel, crossed
    else:
        # general analyser angle a relative to the input polarizer
        a = pol.angle_rad
        amp = 0.5 * (t_plus + t_minus) * np.cos(a) + 0.5j * (t_plus - t_minus) * np.sin(a)
        amp_perp = -0.5 * (t_plus + t_minus) * np.sin(a) + 0.5j * (t_plus - t_minus) * np.cos(a)
        through, blocked = np.abs(amp) ** 2, np.abs(amp_perp) ** 2
    return np.clip(through + pol.extinction * blocked, 0.0, 1.0)


def fadof_spectrum(
    cell: VaporCellConfig,
    b_field_t: float,
    pol: PolarizerPair,
    grid_hz: np.ndarray,
    atoms: AtomLibrary,
    slices: int = 16,
) -> FilterSpectrum:
    """Faraday-filter transmission on ``grid_hz`` plus an exact evaluator."""
    path = VaporPath(atoms, cell, b_field_t, slices=slices)

    def fn(nu):
        t_plus, t_minus = path.transfer_at(nu)
        return _fadof_transmission(t_plus, t_minus, pol)

    grid = np.asarray(grid_hz, dtype=float)
    return FilterSpectrum(grid_hz=grid, transmission=fn(grid), fn=fn)


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
        raise ValueError("spectrum has no transmission")
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
    if np.any(outside):
        worst = float(t[outside].max())
        rejection_db = float("inf") if worst <= 0 else -10.0 * np.log10(worst)
    else:
        rejection_db = float("nan")

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
    grid = np.asarray(grid_hz, dtype=float)
    return FilterSpectrum(grid_hz=grid, transmission=fn(grid), fn=fn)


@dataclass(frozen=True)
class FilterAssembly:
    """Dual-channel filter state: one FilterSpectrum per polarization channel."""

    mode: str  # "on" | "off"
    channels: dict

    def channel(self, name: str) -> FilterSpectrum:
        return self.channels[name]


def dual_channel_mode(
    on: bool,
    atoms: AtomLibrary,
    grid_hz: np.ndarray,
    cell: VaporCellConfig | None = None,
    b_field_t: float = 4.5e-3,
    pol: PolarizerPair | None = None,
) -> FilterAssembly:
    """ON: the Faraday filter acts on both polarization channels.
    OFF: the output swap passes everything with only the polarizer loss."""
    pol = pol or PolarizerPair()
    if on:
        if cell is None:
            raise ConfigError("dual-channel ON mode needs the cell configuration")
        spec = fadof_spectrum(cell, b_field_t, pol, grid_hz, atoms)
        channels = {"H": spec, "V": spec}
    else:
        flat = 1.0 - pol.extinction

        def fn(nu):
            return np.full(np.atleast_1d(nu).shape, flat)

        grid = np.asarray(grid_hz, dtype=float)
        spec = FilterSpectrum(grid_hz=grid, transmission=fn(grid), fn=fn)
        channels = {"H": spec, "V": spec}
    return FilterAssembly(mode="on" if on else "off", channels=channels)
