"""Warm-vapor optics: number density, complex refractive index, cell transfer.

The chain is: transition lines (atoms.py) -> per-polarization susceptibility
chi_q(nu) as a sum of complex Voigt profiles -> n_q = sqrt(1 + chi_q) ->
diagonal circular-basis Jones factors exp[i 2 pi nu (n_q - 1) dz / c]
composed along the beam path with a position-dependent axial field.

Pointwise evaluation at arbitrary frequencies is exact (no sampling), while
the uniform-grid operations enforce a resolution precondition so exported
spectra cannot silently under-resolve a line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, hbar, k as K_B

from atompairs.atoms import AtomLibrary, all_lines_for_cell
from atompairs.errors import ConfigError, ResolutionError
from atompairs.faddeeva import voigt_profile_complex

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class VaporCellConfig:
    """Geometry, temperature and composition of one vapor cell."""

    length_m: float
    temperature_k: float
    isotope_fractions: Mapping[str, float]
    buffer_fwhm_hz: float = 0.0
    field_profile: str = "uniform"  # or "quadratic"
    droop_fraction: float = 0.0  # center-to-face fractional drop of B(z)

    def __post_init__(self):
        if self.length_m <= 0:
            raise ConfigError("cell length must be > 0")
        if self.temperature_k <= 0:
            raise ConfigError("cell temperature must be > 0")
        total = sum(self.isotope_fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"isotope fractions sum to {total!r}, expected 1")
        if any(f < 0 for f in self.isotope_fractions.values()):
            raise ConfigError("isotope fractions must be >= 0")
        if self.buffer_fwhm_hz < 0:
            raise ConfigError("buffer broadening must be >= 0")
        if self.field_profile not in ("uniform", "quadratic"):
            raise ConfigError("field_profile must be 'uniform' or 'quadratic'")
        if not 0.0 <= self.droop_fraction < 0.5:
            raise ConfigError("droop_fraction must lie in [0, 0.5)")

    def field_at(self, z_m, b_center_t: float):
        """Axial field at position z in [0, L]."""
        if self.field_profile == "uniform" or self.droop_fraction == 0.0:
            return b_center_t * np.ones_like(np.asarray(z_m, dtype=float))
        x = 2.0 * np.asarray(z_m, dtype=float) / self.length_m - 1.0
        return b_center_t * (1.0 - self.droop_fraction * x**2)


def number_density(temperature_k: float, atoms: AtomLibrary) -> float:
    """Total Rb number density in m^-3 from the configured vapor pressure."""
    if not 250.0 < temperature_k < 450.0:
        raise ConfigError(
            f"temperature {temperature_k} K outside the validated range (250, 450) K"
        )
    p = atoms.vapor_pressure.pressure_pa(temperature_k)
    return p / (K_B * temperature_k)


def _doppler_sigma_hz(nu0_hz, mass_kg, temperature_k):
    """1/e half width nu0 * u / c with u = sqrt(2 kB T / m)."""
    u = np.sqrt(2.0 * K_B * temperature_k / mass_kg)
    return nu0_hz * u / C_LIGHT


@dataclass
class _LineArrays:
    nu0: np.ndarray
    amp: np.ndarray  # N * pop * d^2 / (eps0 hbar), angular-frequency units
    sigma_hz: np.ndarray
    lorentz_fwhm_hz: np.ndarray

    @classmethod
    def from_lines(cls, line_sets, cell: VaporCellConfig, density_m3: float):
        counts = [len(ls) for ls in line_sets]
        nu0 = np.concatenate([ls.frequency_hz for ls in line_sets])
        d_sq = np.concatenate([ls.dipole_sq for ls in line_sets])
        frac = np.repeat([cell.isotope_fractions.get(ls.isotope, 0.0) for ls in line_sets], counts)
        pop = np.repeat([ls.population for ls in line_sets], counts)
        mass = np.repeat([ls.mass_kg for ls in line_sets], counts)
        nat = np.repeat([ls.natural_fwhm_hz for ls in line_sets], counts)
        amp = density_m3 * frac * pop * d_sq / (epsilon_0 * hbar)
        sigma = _doppler_sigma_hz(nu0, mass, cell.temperature_k)
        return cls(
            nu0=nu0,
            amp=amp,
            sigma_hz=sigma,
            lorentz_fwhm_hz=nat + cell.buffer_fwhm_hz,
        )

    def susceptibility(self, nu_hz: np.ndarray) -> np.ndarray:
        """chi(nu), vectorized over lines x frequencies."""
        nu = np.asarray(nu_hz, dtype=float)
        delta = nu[None, :] - self.nu0[:, None]
        prof = voigt_profile_complex(
            delta, self.lorentz_fwhm_hz[:, None], self.sigma_hz[:, None]
        )
        return 1j * (self.amp @ prof)

    def min_feature_width_hz(self) -> float:
        doppler_fwhm = 2.0 * np.sqrt(_LN2) * self.sigma_hz
        return float(min(self.lorentz_fwhm_hz.min(), doppler_fwhm.min()))


class VaporPath:
    """Pointwise-exact optical response of a cell at center field ``b_center_t``.

    The path is split into ``slices`` segments, each integrated with two
    Gauss nodes at the local axial field; diagonal circular Jones factors
    multiply in order.  At construction the node fields are grouped into
    distinct fields with multiplicities (both nodes of a uniform cell sit at
    one field, and a quadratic droop pairs mirror nodes), so one propagation
    calls ``index_at`` once per distinct field and yields (t+, t-, theta)
    together.  ``transfer_at`` and ``rotation_angle_at`` are views of that
    propagation; the last one is kept, so asking for both at the same
    frequencies evaluates the path once.
    """

    def __init__(
        self,
        atoms: AtomLibrary,
        cell: VaporCellConfig,
        b_center_t: float,
        slices: int = 16,
    ):
        if slices < 1:
            raise ConfigError("slices must be >= 1")
        if b_center_t < 0:
            raise ConfigError("field strength must be >= 0")
        self.atoms = atoms
        self.cell = cell
        self.b_center_t = b_center_t
        self.slices = (
            1 if (cell.field_profile == "uniform" or cell.droop_fraction == 0.0) else slices
        )
        self.density_m3 = number_density(cell.temperature_k, atoms)
        self._slice_cache: dict[float, dict[str, _LineArrays]] = {}
        self._last: tuple[np.ndarray, tuple] | None = None

        # two-point Gauss nodes per slice: the phase integral along z then
        # converges fast enough that 16 vs 32 slices agree to < 1e-6
        dz = cell.length_m / self.slices
        starts = np.arange(self.slices) * dz
        offset = 0.5 * dz / np.sqrt(3.0)
        nodes = np.concatenate([starts + 0.5 * dz - offset, starts + 0.5 * dz + offset])
        self._dz = cell.length_m / nodes.size
        # distinct node fields -> [field, multiplicity], keyed as _slice_cache
        fields: dict[float, list] = {}
        for b in cell.field_at(np.sort(nodes), b_center_t):
            fields.setdefault(round(float(b), 15), [float(b), 0])[1] += 1
        self._fields = [tuple(entry) for entry in fields.values()]

    def _arrays_for_field(self, b_t: float) -> dict[str, _LineArrays]:
        key = round(float(b_t), 15)
        if key not in self._slice_cache:
            lines = all_lines_for_cell(
                self.atoms, self.cell.isotope_fractions, float(b_t)
            )
            self._slice_cache[key] = {
                pol: _LineArrays.from_lines(lns, self.cell, self.density_m3)
                for pol, lns in lines.items()
            }
        return self._slice_cache[key]

    def index_at(self, nu_hz, b_t: float):
        """(n+, n-) at arbitrary frequencies for a uniform field ``b_t``."""
        arrays = self._arrays_for_field(b_t)
        nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
        n_plus = np.sqrt(1.0 + arrays["sigma+"].susceptibility(nu))
        n_minus = np.sqrt(1.0 + arrays["sigma-"].susceptibility(nu))
        return n_plus, n_minus

    def _propagate(self, nu_hz):
        """(t+, t-, theta) at ``nu_hz``: one ``index_at`` call per distinct field.

        Raises ValueError if either circular transfer exceeds unity (gain).
        The returned arrays are read-only, since the last result is reused.
        """
        nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
        if self._last is not None and np.array_equal(self._last[0], nu):
            return self._last[1]
        log_t_plus = np.zeros(nu.shape, dtype=complex)
        log_t_minus = np.zeros(nu.shape, dtype=complex)
        theta = np.zeros(nu.shape)
        k_vac = 2j * np.pi * nu / C_LIGHT
        for b, count in self._fields:
            n_plus, n_minus = self.index_at(nu, b)
            log_t_plus += count * (k_vac * (n_plus - 1.0) * self._dz)
            log_t_minus += count * (k_vac * (n_minus - 1.0) * self._dz)
            theta += count * (
                np.pi * nu * self._dz * (n_plus.real - n_minus.real) / C_LIGHT
            )
        # singular values of diag(t+, t-) are |t+|, |t-|
        gain = np.expm1(max(log_t_plus.real.max(), log_t_minus.real.max()))
        if gain > 1e-12:
            raise ValueError(f"cell transfer has gain ({gain:.3g} above unity)")
        result = (np.exp(log_t_plus), np.exp(log_t_minus), theta)
        for arr in result:
            arr.flags.writeable = False
        self._last = (nu.copy(), result)
        return result

    def transfer_at(self, nu_hz):
        """Circular-basis diagonal transfer (t+, t-) with the field profile.

        The common vacuum phase exp(i 2 pi nu L / c) is dropped; only the
        differential phase and the attenuation are physical here.
        """
        t_plus, t_minus, _ = self._propagate(nu_hz)
        return t_plus, t_minus

    def rotation_angle_at(self, nu_hz):
        """Faraday rotation angle theta(nu) accumulated along the path.

        Summed slice by slice rather than read off angle(t+/t-), so rotations
        beyond pi/2 are not wrapped.
        """
        return self._propagate(nu_hz)[2]

    def min_feature_width_hz(self) -> float:
        widths = [
            arr.min_feature_width_hz()
            for arrays in (self._arrays_for_field(b) for b, _ in self._fields)
            for arr in arrays.values()
        ]
        return min(widths)


def _check_resolution(grid_hz: np.ndarray, min_width_hz: float):
    grid = np.asarray(grid_hz, dtype=float)
    if grid.size < 2:
        return
    spacing = np.diff(grid)
    if np.any(spacing <= 0):
        raise ConfigError("frequency grid must be strictly increasing")
    _check_spacing(spacing.max(), min_width_hz)


def _check_spacing(spacing_hz: float, min_width_hz: float):
    required = min_width_hz / 10.0
    if spacing_hz > required * (1 + 1e-9):
        raise ResolutionError(spacing_hz, required)


@dataclass(frozen=True)
class ScalarTransmission:
    """Polarization-independent intensity transmission |t+|^2 of a zero-field
    path, evaluated exactly at any frequency."""

    path: VaporPath

    def __call__(self, nu_hz):
        t_plus, _ = self.path.transfer_at(nu_hz)
        return np.abs(t_plus) ** 2


def blocking_cell_transmission(
    cell: VaporCellConfig,
    spacing_hz: float,
    atoms: AtomLibrary,
) -> ScalarTransmission:
    """Zero-field scalar attenuation of a (typically hot, buffered) cell.

    ``spacing_hz`` is the grid spacing the caller will sample at; it must
    resolve the cell's narrowest line.
    """
    if spacing_hz <= 0:
        raise ConfigError("grid spacing must be > 0")
    path = VaporPath(atoms, cell, b_center_t=0.0, slices=1)
    _check_spacing(spacing_hz, path.min_feature_width_hz())
    return ScalarTransmission(path)


def make_frequency_grid(
    center_hz: float, half_span_hz: float = 8e9, spacing_hz: float = 0.5e6
) -> np.ndarray:
    """Uniform grid center +- half_span; default resolves the natural width."""
    if spacing_hz <= 0 or half_span_hz < 0:
        raise ConfigError("grid spacing must be > 0 and half span >= 0")
    n = int(round(half_span_hz / spacing_hz))
    return center_hz + spacing_hz * np.arange(-n, n + 1)
