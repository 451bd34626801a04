"""Warm-vapor optics: number density, complex refractive index, cell transfer.

The chain is: transition lines (atoms.py) -> per-polarization susceptibility
chi_q(nu) as a sum of complex Voigt profiles -> n_q = sqrt(1 + chi_q) ->
diagonal circular-basis Jones factors exp[i 2 pi nu (n_q - 1) dz / c]
composed along the beam path with a position-dependent axial field.

Evaluation is pointwise and exact at any frequency.  A caller that exports a
spectrum on a uniform grid first calls ``check_spacing``, the one resolution
rule: ``POINTS_PER_FWHM`` grid points per Voigt FWHM of the narrowest line.

``VaporPath`` is the cell at one center field, at any frequencies;
``transfer_vs_field`` is the cell at one frequency over many center fields,
with the lines of their slice fields built in field-batched passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, hbar, k as K_B

from atompairs.atoms import AtomLibrary, all_lines_for_cell, circular_lines_per_field, lines_at_fields
from atompairs.errors import ConfigError, ResolutionError
from atompairs.faddeeva import SPLIT_MIN_POINTS, voigt_profile_complex

_LN2 = np.log(2.0)
# line x frequency points per block of the susceptibility sum (2^18): a
# block's temporaries stay near 10 MB whatever the grid, every full block
# still splits across the usable CPUs, and the per-block thread hand-off
# costs about 3 % of a 32,001-point filter (7 % at 2^17).  A field scan's
# blocks hold at most this many 8-byte words of line arrays (2 MB).
BLOCK_POINTS = 4 * SPLIT_MIN_POINTS
# 8-byte words of line arrays a field scan counts per candidate circular line
# and field: the LineSet's 6, _LineArrays' 5 and the probe sum's 9 (four
# joined line arrays, a group index and two complex per-line terms).  That
# sum was chosen because it keeps fig11's block at the six centers it had
# when blocks were counted in matrix elements of the dense kernel;
# tracemalloc puts a block's peak at about 23 words a line, temporaries
# included.
LINE_WORDS = 20
# grid points per Voigt FWHM of a cell's narrowest line, set by the refinement
# study in tests/test_resolution.py (README, Grid resolution)
POINTS_PER_FWHM = 100


@dataclass(frozen=True)
class VaporCellConfig:
    """Geometry, temperature and composition of one vapor cell."""

    length_m: float
    temperature_k: float
    isotope_fractions: Mapping[str, float]
    buffer_fwhm_hz: float = 0.0
    droop_fraction: float = 0.0  # center-to-face fractional drop of B(z)

    def __post_init__(self):
        if not (np.isfinite(self.length_m) and self.length_m > 0):
            raise ConfigError(f"cell length must be finite and > 0 (got {self.length_m!r})")
        if not (np.isfinite(self.temperature_k) and self.temperature_k > 0):
            raise ConfigError(f"cell temperature must be finite and > 0 (got {self.temperature_k!r})")
        if not all(np.isfinite(f) and f >= 0 for f in self.isotope_fractions.values()):
            raise ConfigError("isotope fractions must be finite and >= 0")
        total = sum(self.isotope_fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"isotope fractions sum to {total!r}, expected 1")
        if not (np.isfinite(self.buffer_fwhm_hz) and self.buffer_fwhm_hz >= 0):
            raise ConfigError("buffer broadening must be finite and >= 0")
        if not 0.0 <= self.droop_fraction < 0.5:
            raise ConfigError("droop_fraction must lie in [0, 0.5)")

    @property
    def field_profile(self) -> str:
        """"quadratic" when the field droops toward the faces, else "uniform"."""
        return "quadratic" if self.droop_fraction else "uniform"

    def field_at(self, z_m, b_center_t):
        """Axial field at position z in [0, L]; an array of center fields
        broadcasts against the positions."""
        if self.droop_fraction == 0.0:
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


def _frequencies(nu_hz) -> np.ndarray:
    nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
    if not np.all(np.isfinite(nu)):
        raise ConfigError("probe frequencies must be finite")
    return nu


@dataclass
class _LineArrays:
    nu0: np.ndarray
    amp: np.ndarray  # N * pop * d^2 / (eps0 hbar), angular-frequency units
    sigma_hz: np.ndarray
    lorentz_fwhm_hz: np.ndarray
    field: np.ndarray  # index of each line's field (LineSet.field)

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
            field=np.concatenate([ls.field for ls in line_sets]),
        )

    def susceptibility(self, nu_hz: np.ndarray) -> np.ndarray:
        """chi(nu) on a 1-D grid, in blocks of at most ``BLOCK_POINTS`` line x
        frequency points, so peak memory follows the grid, not lines x grid."""
        nu = np.asarray(nu_hz, dtype=float)
        chi = np.empty(nu.shape, dtype=complex)
        step = max(1, BLOCK_POINTS // self.nu0.size)
        for a in range(0, nu.size, step):
            delta = nu[None, a : a + step] - self.nu0[:, None]
            prof = voigt_profile_complex(delta, self.lorentz_fwhm_hz[:, None], self.sigma_hz[:, None])
            chi[a : a + step] = 1j * (self.amp @ prof)
        return chi


def _group_sums(group: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex sum of ``values`` per ``group`` index, each summed in input order."""
    return np.bincount(group, values.real, size) + 1j * np.bincount(group, values.imag, size)


def _probe_susceptibility(arrays, nu_hz: float, n_fields: int) -> np.ndarray:
    """chi at one frequency of each ``_LineArrays`` in ``arrays``, per field
    index: shape (len(arrays), n_fields), from one Voigt call over all lines."""
    def joined(name):
        return np.concatenate([getattr(a, name) for a in arrays])

    prof = voigt_profile_complex(nu_hz - joined("nu0"), joined("lorentz_fwhm_hz"), joined("sigma_hz"))
    group = np.concatenate([a.field + k * n_fields for k, a in enumerate(arrays)])
    chi = _group_sums(group, joined("amp") * prof, len(arrays) * n_fields)
    return 1j * chi.reshape(len(arrays), n_fields)


def _slice_nodes(cell: VaporCellConfig, slices: int):
    """Sorted two-point Gauss nodes of ``slices`` equal segments of the cell,
    and the path length each node stands for."""
    dz = cell.length_m / slices
    starts = np.arange(slices) * dz
    offset = 0.5 * dz / np.sqrt(3.0)
    nodes = np.concatenate([starts + 0.5 * dz - offset, starts + 0.5 * dz + offset])
    return np.sort(nodes), cell.length_m / nodes.size


def _distinct_fields(node_fields: np.ndarray):
    """Group each row of ``node_fields`` (centers x nodes) into the fields
    that agree to 1e-15 T, keyed on ``round(b, 15)``: both nodes of a uniform
    cell sit at one field, and a quadratic droop pairs mirror nodes.

    Returns (row, field, count) per group, rows ascending and each row's
    groups in node order; a group's field is that of its first node.
    """
    nodes = node_fields.shape[1]
    key = np.array([round(b, 15) for b in node_fields.ravel().tolist()])
    row = np.repeat(np.arange(node_fields.shape[0]), nodes)
    order = np.lexsort((key, row))  # stable: a group's nodes stay in node order
    key, row = key[order], row[order]
    starts = np.flatnonzero(np.concatenate([[True], (key[1:] != key[:-1]) | (row[1:] != row[:-1])]))
    count = np.diff(np.append(starts, order.size))
    first = order[starts]
    by_node = np.argsort(first)
    first = first[by_node]
    return first // nodes, node_fields.ravel()[first], count[by_node]


def _transfer_from_log(log_t_plus, log_t_minus):
    """(t+, t-, theta) from the summed log transfers.

    Raises ValueError if either circular transfer exceeds unity (gain).
    """
    # singular values of diag(t+, t-) are |t+|, |t-|; no frequencies, no gain
    largest = max(log_t_plus.real.max(initial=-np.inf), log_t_minus.real.max(initial=-np.inf))
    gain = np.expm1(largest)
    if gain > 1e-12:
        raise ValueError(f"cell transfer has gain ({gain:.3g} above unity)")
    # half the circular phase difference, summed slice by slice: unwrapped
    theta = 0.5 * (log_t_plus.imag - log_t_minus.imag)
    return np.exp(log_t_plus), np.exp(log_t_minus), theta


class VaporPath:
    """Pointwise-exact optical response of a cell at center field ``b_center_t``.

    The path is split into ``slices`` segments, each integrated with two
    Gauss nodes at the local axial field; diagonal circular Jones factors
    multiply in order.  At construction the node fields are grouped into
    distinct fields with multiplicities, so one propagation calls
    ``index_at`` once per distinct field and yields (t+, t-, theta)
    together.  ``transfer_at`` and ``rotation_angle_at`` are views of that
    propagation.
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
        if not (np.isfinite(b_center_t) and b_center_t >= 0):
            raise ConfigError(f"field strength must be finite and >= 0 (got {b_center_t!r})")
        self.atoms = atoms
        self.cell = cell
        self.b_center_t = b_center_t
        self.slices = 1 if cell.droop_fraction == 0.0 else slices
        self.density_m3 = number_density(cell.temperature_k, atoms)
        self._slice_cache: dict[float, dict[str, _LineArrays]] = {}

        # two-point Gauss nodes per slice: the phase integral along z then
        # converges fast enough that 16 vs 32 slices agree to < 1e-6
        nodes, self._dz = _slice_nodes(cell, self.slices)
        # distinct node fields and multiplicities, rounded as _slice_cache keys
        _, fields, counts = _distinct_fields(cell.field_at(nodes, b_center_t)[None, :])
        self._fields = list(zip(fields.tolist(), counts.tolist()))

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
        nu = _frequencies(nu_hz)
        n_plus = np.sqrt(1.0 + arrays["sigma+"].susceptibility(nu))
        n_minus = np.sqrt(1.0 + arrays["sigma-"].susceptibility(nu))
        return n_plus, n_minus

    def _propagate(self, nu_hz):
        """(t+, t-, theta) at ``nu_hz``: one ``index_at`` call per distinct field.

        Raises ValueError if either circular transfer exceeds unity (gain).
        """
        nu = _frequencies(nu_hz)
        log_t_plus = np.zeros(nu.shape, dtype=complex)
        log_t_minus = np.zeros(nu.shape, dtype=complex)
        k_vac = 2j * np.pi * nu / C_LIGHT
        for b, count in self._fields:
            n_plus, n_minus = self.index_at(nu, b)
            log_t_plus += count * (k_vac * (n_plus - 1.0) * self._dz)
            log_t_minus += count * (k_vac * (n_minus - 1.0) * self._dz)
        return _transfer_from_log(log_t_plus, log_t_minus)

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


def transfer_vs_field(
    atoms: AtomLibrary,
    cell: VaporCellConfig,
    nu_hz: float,
    b_centers_t,
    slices: int = 16,
):
    """(t+, t-, theta) of the cell at the one frequency ``nu_hz``, one entry per
    center field in ``b_centers_t``: ``VaporPath(atoms, cell, b, slices)``'s
    ``transfer_at`` and ``rotation_angle_at`` for every ``b`` at once.

    The centers are walked in blocks whose Gauss nodes need at most
    ``BLOCK_POINTS`` words of line arrays.  A block's distinct
    node fields go through the kernel together and through one Voigt call,
    so memory follows the block, not the number of centers.  Raises
    ValueError if a circular transfer exceeds unity (gain).
    """
    if slices < 1:
        raise ConfigError("slices must be >= 1")
    centers = np.asarray(b_centers_t, dtype=float)
    if centers.ndim != 1 or centers.size == 0 or not np.all(np.isfinite(centers) & (centers >= 0)):
        raise ConfigError("center fields must be a non-empty 1-D array of finite fields >= 0")
    nu = _frequencies(nu_hz)
    if nu.size != 1:
        raise ConfigError("transfer_vs_field takes one probe frequency")
    density = number_density(cell.temperature_k, atoms)
    nodes, dz = _slice_nodes(cell, 1 if cell.droop_fraction == 0.0 else slices)
    k_vac = 2j * np.pi * nu / C_LIGHT
    words_per_center = nodes.size * LINE_WORDS * circular_lines_per_field(atoms, cell.isotope_fractions)
    per_block = max(1, BLOCK_POINTS // words_per_center)

    log_t = np.empty((2, centers.size), dtype=complex)
    for a in range(0, centers.size, per_block):
        block = centers[a : a + per_block]
        # every center's distinct node fields and multiplicities, center by center
        center, node_field, count = _distinct_fields(cell.field_at(nodes, block[:, None]))
        fields, where = np.unique(node_field, return_inverse=True)
        lines = lines_at_fields(atoms, cell.isotope_fractions, fields)
        arrays = [_LineArrays.from_lines(lines[pol], cell, density) for pol in ("sigma+", "sigma-")]
        index = np.sqrt(1.0 + _probe_susceptibility(arrays, nu[0], fields.size))
        # summed node field by node field, in VaporPath's order
        for log_t_pol, n in zip(log_t, index):
            terms = count * (k_vac * (n[where] - 1.0) * dz)
            log_t_pol[a : a + block.size] = _group_sums(center, terms, block.size)
    return _transfer_from_log(*log_t)


def _voigt_fwhm_hz(lorentz_fwhm_hz, sigma_hz):
    """Voigt FWHM to about 2e-4 (Olivero & Longbothum, JQSRT 17, 233 (1977))."""
    gauss_fwhm = 2.0 * np.sqrt(_LN2) * sigma_hz
    return 0.5346 * lorentz_fwhm_hz + np.sqrt(0.2166 * lorentz_fwhm_hz**2 + gauss_fwhm**2)


def check_spacing(cell: VaporCellConfig, atoms: AtomLibrary, spacing_hz: float):
    """Raise ResolutionError if ``spacing_hz`` puts fewer than ``POINTS_PER_FWHM``
    grid points across the cell's narrowest Voigt line.  The widths come from
    each isotope's D1 frequency and do not depend on the field."""
    width = min(
        _voigt_fwhm_hz(
            atoms[name].natural_fwhm_hz + cell.buffer_fwhm_hz,
            _doppler_sigma_hz(atoms[name].d1_frequency_hz, atoms[name].mass_kg, cell.temperature_k),
        )
        for name, fraction in cell.isotope_fractions.items()
        if fraction > 0
    )
    required = width / POINTS_PER_FWHM
    if spacing_hz > required * (1 + 1e-9):
        raise ResolutionError(spacing_hz, required)


def blocking_cell_transmission(cell: VaporCellConfig, atoms: AtomLibrary):
    """Zero-field attenuation ``nu -> |t+|^2`` of a (typically hot, buffered)
    cell, exact at any frequency: no grid, so no spacing to check."""
    path = VaporPath(atoms, cell, b_center_t=0.0, slices=1)
    return lambda nu_hz: np.abs(path.transfer_at(nu_hz)[0]) ** 2


def make_frequency_grid(
    center_hz: float, half_span_hz: float = 8e9, spacing_hz: float = 0.5e6
) -> np.ndarray:
    """Uniform grid center +- half_span; default resolves the natural width."""
    if spacing_hz <= 0 or half_span_hz < 0:
        raise ConfigError("grid spacing must be > 0 and half span >= 0")
    n = int(round(half_span_hz / spacing_hz))
    return center_hz + spacing_hz * np.arange(-n, n + 1)
