"""Warm-vapor optics: number density, complex refractive index, cell transfer.

The chain is: transition lines (atoms.py) -> per-polarization susceptibility
chi_q(nu) as a sum of complex Voigt profiles -> n_q = sqrt(1 + chi_q) ->
diagonal circular-basis Jones factors exp[i 2 pi nu (n_q - 1) dz / c]
composed along the beam path with a position-dependent axial field.

Any frequencies may be asked for.  A caller that exports a spectrum on a
uniform grid first calls ``check_spacing``, the one resolution rule:
``POINTS_PER_FWHM`` grid points per Voigt FWHM of the narrowest line.  On a
uniform grid at least a few times finer than that, every line's z moves by
one real step h per grid point, and w' = -2 z w + 2i / sqrt(pi) (Abramowitz &
Stegun 7.1.20) gives every Taylor coefficient of w from w itself.  So the
Voigt profiles are evaluated only at anchors, one in the middle of each cell
of as many grid points as the fill's accuracy bounds allow, up to
``ANCHOR_CELL``, their Taylor terms are summed over each line
group in one reduction, and chi is filled from those sums: Im chi to 1e-12
and chi to 1e-11 of the pointwise line sum (tests/test_vapor.py).  Other
frequencies are each their own anchor, but far from every line, as most of a
pair comb is, chi is a series in 1 / (nu - nu_c) per group (``_far_series``),
and only the near ones take the Voigt workspace, so such a walk's blocks are
cut by their count of near frequencies: fig3's comb walks in 2 blocks.

``VaporPath`` is the one propagation engine: the cell at one center field or
a 1-D array of them, at any frequencies.  The field droops symmetrically
about the cell center, so the path is integrated over the Gauss nodes of the
cell's first half, each standing for itself and its mirror image, and the
lines of every distinct node field are built in one ``lines_at_fields``
pass.  It walks the frequencies in blocks on the calling thread
(``_walk_chi``, the one frequency-block walk), so its memory follows the
block and its outputs, not fields x frequencies.  A propagation ends in
log t+-, and each view reads what it needs from them: ``transfer_at``
exponentiates them, ``transmission_at`` takes |t+-|^2 = exp(2 Re log t+-)
with no complex exponential, and ``rotation_angle_at`` half the difference
of their phases.  ``transfer_vs_field`` is its one-frequency case over many
center fields, walked in blocks of centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from atompairs.atoms import MU_B_HZ_PER_T, AtomLibrary, lines_at_fields
from atompairs.errors import ConfigError, ResolutionError, check_points
from atompairs.faddeeva import voigt_profile_complex

# CODATA 2022, as scipy.constants 1.17 states them
C_LIGHT = 299792458.0  # m/s
EPSILON_0 = 8.8541878188e-12  # F/m
HBAR = 1.0545718176461565e-34  # J s, h / (2 pi)
K_B = 1.380649e-23  # J/K
_LN2 = np.log(2.0)
# line x frequency points per block of the frequency walk: two per line and
# anchor and two per group and grid point (``_walk_chi``)
BLOCK_POINTS = 3 << 14
# Gauss nodes, counted over both halves of the cell, per block of a field
# scan's centers: six centers of fig11's 16-slice cell (32 nodes)
SCAN_BLOCK_NODES = 192
# grid points per Voigt FWHM of a cell's narrowest line, set by the refinement
# study in tests/test_resolution.py (README, Grid resolution)
POINTS_PER_FWHM = 100
# the anchor fill of a uniform grid (``_walk_chi``): at most ``ANCHOR_CELL``
# grid points per anchor, ``TAYLOR_TERMS`` Taylor terms past the profile, at
# most ``ANCHOR_REACH`` from the anchor in z, and 2 |z| |z - z_anchor| at most
# ``ANCHOR_GROWTH``, as the forward recurrence amplifies rounding by about
# exp(2 |z| |z - z_anchor|); set by the accuracy study in tests/test_vapor.py
ANCHOR_CELL = 64
TAYLOR_TERMS = 12
ANCHOR_REACH = 0.06
ANCHOR_GROWTH = 5.0
# ``_far_series``'s radius and terms, set by the accuracy study in tests/test_vapor.py
FAR_SPREAD = 4.0
FAR_WIDTHS = 25.0
FAR_TERMS = 26


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
        x = 2.0 * np.asarray(z_m, dtype=float) / self.length_m - 1.0
        return b_center_t * (1.0 - self.droop_fraction * x**2)


def _check_temperature(temperature_k: float):
    if not 250.0 < temperature_k < 450.0:
        raise ConfigError(
            f"temperature {temperature_k} K outside the validated range (250, 450) K"
        )


def number_density(temperature_k: float, atoms: AtomLibrary) -> float:
    """Total Rb number density in m^-3 from the configured vapor pressure."""
    _check_temperature(temperature_k)
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
    """The sigma+ and sigma- lines of a path's fields as a rank x group table
    (``_rank_major``); a line's group is its field's index, plus the number of
    fields for sigma-.  A short group ends in its first line at amplitude 0."""

    nu0: np.ndarray
    amp: np.ndarray  # N * pop * d^2 / (eps0 hbar), angular-frequency units
    sigma_hz: np.ndarray
    lorentz_fwhm_hz: np.ndarray

    @classmethod
    def from_lines(cls, lines, cell: VaporCellConfig, density_m3: float, n_fields: int):
        line_sets = lines["sigma+"] + lines["sigma-"]
        counts = [len(ls) for ls in line_sets]

        def joined(name):
            return np.concatenate([getattr(ls, name) for ls in line_sets])

        def each(values):
            return np.repeat(values, counts)

        nu0 = joined("frequency_hz")
        frac = each([cell.isotope_fractions.get(ls.isotope, 0.0) for ls in line_sets])
        amp = density_m3 * frac * each([ls.population for ls in line_sets]) * joined("dipole_sq") / (EPSILON_0 * HBAR)
        sigma = _doppler_sigma_hz(nu0, each([ls.mass_kg for ls in line_sets]), cell.temperature_k)
        lorentz = each([ls.natural_fwhm_hz for ls in line_sets]) + cell.buffer_fwhm_hz
        group = joined("field") + each([n_fields * (ls.polarization == "sigma-") for ls in line_sets])
        order, pad = _rank_major(group, 2 * n_fields)
        return cls(nu0[order], np.where(pad, 0.0, amp[order]), sigma[order], lorentz[order])


def _anchor_cell(lines: _LineArrays, nu: np.ndarray) -> int:
    """Grid points m per anchor of the walk: the most, up to ``ANCHOR_CELL``,
    that keep every line's |z - z_anchor| within ``ANCHOR_REACH`` and
    2 |z| |z - z_anchor| within ``ANCHOR_GROWTH``; 1, each frequency its own
    anchor, if that is below 8, if ``nu`` holds fewer than m points or if it
    is not uniform to a few ulp."""
    n = nu.size
    if n < 8 or lines.nu0.size == 0:
        return 1
    spacing = (nu[-1] - nu[0]) / (n - 1)
    ulp = np.spacing(max(abs(nu[0]), abs(nu[-1])))
    if spacing == 0 or np.abs(nu - (nu[0] + spacing * np.arange(n))).max() > 4 * ulp:
        return 1
    h = abs(spacing) / lines.sigma_hz
    # |z| of each line at the farthest anchor, which lies up to half a cell
    # past the grid
    far = np.maximum(abs(nu[0] - lines.nu0), abs(nu[-1] - lines.nu0)) + abs(spacing) * ANCHOR_CELL / 2
    z_max = np.hypot(far, 0.5 * lines.lorentz_fwhm_hz) / lines.sigma_hz
    half = min(ANCHOR_REACH / h.max(), ANCHOR_GROWTH / (2 * (h * z_max).max()))
    # the odd cell of 2 floor(half) + 1 points reaches floor(half) steps either
    # side of its middle anchor; min before int, so an infinite half is the cap
    cell = int(min(ANCHOR_CELL, 2 * np.floor(half) + 1))
    return cell if 8 <= cell <= n else 1


def _far_series(lines: _LineArrays, nu: np.ndarray):
    """(far, fill) of a walk of one-point cells, or None if no frequency is
    far: ``far`` marks those at least R = max(``FAR_SPREAD`` |e|, ``FAR_WIDTHS``
    sigma) from the lines' midpoint nu_c, with e = nu0 - nu_c - i Gamma / 2 of
    the extreme lines, and ``fill(near, a, b)`` is chi over ``nu[a:b]``, the
    group sums ``near`` at the others.  There a line's term, -amp E[1 / (2 pi
    (nu - nu_c - e - X))] over its Doppler shift X, is -amp / (2 pi R) sum_p
    M_(p-1) x^p in x = R / (nu - nu_c) and units of R, with M_k = E[(e + X)^k]
    = e M_(k-1) + (k - 1) sigma^2 M_(k-2) / 2 (A&S 7.1.23 re-expanded about
    nu_c), summed per group and cut after ``FAR_TERMS``: no power exceeds 1."""
    lo, hi = float(lines.nu0.min()), float(lines.nu0.max())
    center = 0.5 * (lo + hi)
    spread = float(np.hypot(hi - lo, lines.lorentz_fwhm_hz.max())) / 2
    radius = max(FAR_SPREAD * spread, FAR_WIDTHS * float(lines.sigma_hz.max()))
    far = np.abs(nu - center) >= radius
    if not far.any():
        return None
    e = (lines.nu0 - center - 0.5j * lines.lorentz_fwhm_hz) / radius
    var, weight = 0.5 * (lines.sigma_hz / radius) ** 2, lines.amp / (-2.0 * np.pi * radius)
    moment, previous, coefficients = np.ones_like(e), np.zeros_like(e), []
    for k in range(FAR_TERMS):
        coefficients.append((weight * moment).sum(axis=0))
        moment, previous = e * moment + k * var * previous, moment

    def fill(near, a, b):
        chi, here = np.empty((len(near), b - a), dtype=complex), far[a:b]
        chi[:, ~here] = near
        x = radius / (nu[a:b][here] - center)
        chi[:, here] = x * np.polynomial.polynomial.polyval(x, coefficients)
        return chi

    return far, fill


def _walk_chi(lines: _LineArrays, nu: np.ndarray, consume):
    """Call ``consume(columns, chi)`` on the calling thread once per
    contiguous block of the 1-D frequencies ``nu``, in order; ``chi``, shape
    (groups, block), sums each line group's lines in rank order, so no value
    depends on its block.  Blocks are cut on whole anchor cells and share one
    workspace: every ``step`` frequencies, but in a walk of one-point cells
    that reaches ``_far_series``, where only the near frequencies use the
    workspace, after every ``step`` near ones and at most every ``cap``.

    The Voigt profiles are evaluated only at anchors, one per cell of m grid
    points (``_anchor_cell``) at the cell's middle.  Where m > 1, chi is
    filled from their Taylor series: the lines' terms are summed per group,
    so the line sum is made once per anchor.  Where m = 1, each frequency is
    its own anchor and chi the group sum of its lines' terms, or far from
    every line each group's series in 1 / (nu - nu_c) (``_far_series``).
    """
    nu0, amp, sigma, lorentz = (x.reshape(-1, 1) for x in (lines.nu0, lines.amp, lines.sigma_hz, lines.lorentz_fwhm_hz))
    groups, cell = lines.nu0.shape[1], _anchor_cell(lines, nu)
    series = _far_series(lines, nu) if cell == 1 and lines.nu0.size else None
    # the scaled Taylor terms u_k = h^k q^(k)(z) of a line's term q = i amp
    # sqrt(pi) w(z) / sigma_w of chi, in the step h = dz per grid step, follow
    # from w' = -2 z w + 2i / sqrt(pi): u_1 = h (-2 z q - 2 amp / sigma_w) and
    # u_(k+1) = -2 h z u_k - 2 k h^2 u_(k-1).  Each is summed per group as it
    # is made, so a line holds two terms, and divided by k! there.
    spacing = (nu[-1] - nu[0]) / (nu.size - 1) if cell > 1 else 0.0
    sigma_w = 2.0 * np.pi * sigma
    h = spacing / sigma
    factorials = np.cumprod([1.0] + list(range(1, TAYLOR_TERMS + 1)))[:, None, None]
    # an anchor's line holds four complex numbers and a cell's chi entry is
    # chi, 1 + chi and n+- in ``consume``: about two points each
    step = max(1, BLOCK_POINTS // (2 * (nu0.size + groups * cell))) * cell
    # flat, so that a short block's views are contiguous too
    size = nu0.size * min(step // cell, -(-nu.size // cell))
    z, prev, term, scratch = (np.empty(size, dtype=complex) for _ in range(4))
    starts = range(0, nu.size, step)
    if series is not None:
        # a block's chi and far fill take two points per group and frequency
        cap = max(step, BLOCK_POINTS // (2 * groups))
        starts = sorted({*range(0, nu.size, cap), *np.flatnonzero(~series[0])[step::step].tolist()})
    for a, b in zip(starts, [*starts[1:], nu.size]):
        anchors = -(-(b - a) // cell)
        at = nu[a:b] if cell == 1 else nu[0] + spacing * np.arange(a + cell // 2, a + anchors * cell, cell)
        at = at if series is None else at[~series[0][a:b]]
        shape = (nu0.size, at.size)
        az, u0, u1, tmp = (x[: nu0.size * at.size].reshape(shape) for x in (z, prev, term, scratch))
        delta = np.subtract(at, nu0, out=tmp.real)
        voigt_profile_complex(delta, lorentz, sigma, out=u0)
        u0 *= 1j * amp
        if cell == 1:
            chi = _group_sums(u0, groups)
            consume(slice(a, b), chi if series is None else series[1](chi, a, b))
            continue
        np.multiply(2.0 * np.pi / sigma_w, delta, out=az)
        az += 1j * np.pi * lorentz / sigma_w
        az *= -2.0 * h
        np.multiply(az, u0, out=u1)
        u1 -= 2.0 * h * amp / sigma_w
        sums = np.empty((TAYLOR_TERMS + 1, groups, anchors), dtype=complex)
        sums[0] = _group_sums(u0, groups)
        sums[1] = _group_sums(u1, groups)
        for k in range(1, TAYLOR_TERMS):
            np.multiply(az, u1, out=tmp)
            u0 *= -2.0 * k * h**2
            u0 += tmp
            u0, u1 = u1, u0
            sums[k + 1] = _group_sums(u1, groups)
        sums /= factorials
        # each point's offset from its anchor in grid steps, exact on an
        # exactly uniform grid; Horner's rule in it fills every group
        offset = np.zeros(anchors * cell)
        offset[: b - a] = nu[a:b] - np.repeat(at, cell)[: b - a]
        offset = (offset / spacing).reshape(anchors, cell)
        sums = sums[..., None]
        chi = np.multiply(sums[TAYLOR_TERMS], offset)
        for k in range(TAYLOR_TERMS - 1, 0, -1):
            chi += sums[k]
            chi *= offset
        chi += sums[0]
        consume(slice(a, b), chi.reshape(groups, anchors * cell)[:, : b - a])
        del sums, chi  # freed before the next block's faddeeva scratch


def _rank_major(group: np.ndarray, size: int):
    """The (rank x group) table of row indices that lists each of ``size``
    groups' rows down its column in row order, and where it is padding: a
    group with fewer rows than the largest ends in copies of its first row."""
    by_group = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=size)
    starts = np.cumsum(counts) - counts
    table = np.tile(by_group[starts], (counts.max(), 1))
    table[np.arange(group.size) - np.repeat(starts, counts), group[by_group]] = by_group
    return table, np.arange(len(table))[:, None] >= counts


def _group_sums(values: np.ndarray, size: int) -> np.ndarray:
    """Per group of ``size``, the sum of the rank-major rows of ``values`` in
    rank order: one reduction over the rank axis, which numpy adds row by row,
    but a lone column, which numpy would sum pairwise, is accumulated."""
    table = values.reshape(len(values) // size, size, values.shape[1])
    if size * values.shape[1] == 1:
        return np.add.accumulate(table)[-1]
    return np.add.reduce(table, axis=0)


def _slice_count(cell: VaporCellConfig, slices: int) -> int:
    """Slices of the path: ``slices`` if the field droops, else one."""
    if slices < 1:
        raise ConfigError("slices must be >= 1")
    return 1 if cell.droop_fraction == 0.0 else slices


def _slice_nodes(cell: VaporCellConfig, slices: int):
    """The ``slices`` lowest two-point Gauss nodes of ``slices`` equal
    segments of the cell, sorted and all in its first half, and the path
    length each stands for: its own and its mirror image's about the center,
    where the field is the same."""
    dz = cell.length_m / slices
    starts = np.arange(slices) * dz
    offset = 0.5 * dz / np.sqrt(3.0)
    nodes = np.concatenate([starts + 0.5 * dz - offset, starts + 0.5 * dz + offset])
    return np.sort(nodes)[:slices], dz


class VaporPath:
    """Optical response of a cell at the center field ``b_center_t``, one
    field or a 1-D array of them, at any frequencies.

    The path is split into ``slices`` segments, each integrated with two
    Gauss nodes at the local axial field.  The field is symmetric about the
    cell center, so only the nodes of the first half are kept, each for twice
    its path length.  The lines of every distinct node field of every center
    come from one ``lines_at_fields`` call, made by the first propagation, so
    a path that only serves ``index_at`` never builds them.  One propagation
    sums chi per field, each field's lines in line order, then log t+- per
    center, each center's nodes in node order: arrays over the frequencies
    for one center, (centers, frequencies) for an array.  Its three views
    are ``transfer_at``, (t+, t-); ``transmission_at``, (|t+|^2, |t-|^2),
    read off Re log t+- alone; and ``rotation_angle_at``, theta.
    """

    def __init__(self, atoms: AtomLibrary, cell: VaporCellConfig, b_center_t, slices: int = 16):
        centers = np.atleast_1d(np.asarray(b_center_t, dtype=float))
        if centers.ndim != 1 or centers.size == 0 or not np.all(np.isfinite(centers) & (centers >= 0)):
            raise ConfigError(f"center fields must be finite and >= 0, one or a non-empty 1-D array (got {b_center_t!r})")
        # a D1 line lies within 1.34 mu_B B plus its hyperfine splittings of
        # the D1 frequency, so below this limit each line stays finite and > 0
        limit_t = 0.5 * atoms.d1_center_hz(cell.isotope_fractions) / MU_B_HZ_PER_T
        if centers.max() >= limit_t:
            raise ConfigError(f"field {centers.max():.6g} T is not below {limit_t:.6g} T, where mu_B B reaches half the D1 frequency")
        self.atoms, self.cell, self.b_center_t = atoms, cell, b_center_t
        self.slices = _slice_count(cell, slices)
        self.density_m3 = number_density(cell.temperature_k, atoms)

        # two-point Gauss nodes per slice: the phase integral along z then
        # converges fast enough that 16 vs 32 slices agree to < 1e-6
        nodes, self._dz = _slice_nodes(cell, self.slices)
        self._fields, where = np.unique(cell.field_at(nodes, centers[:, None]), return_inverse=True)
        self._where = where.reshape(centers.size, nodes.size)

    @cached_property
    def _lines(self) -> _LineArrays:
        """The lines of every node field, built at the first propagation."""
        lines = lines_at_fields(self.atoms, self.cell.isotope_fractions, self._fields)
        return _LineArrays.from_lines(lines, self.cell, self.density_m3, self._fields.size)

    def index_at(self, nu_hz, b_t: float):
        """(n+, n-) of the cell at arbitrary frequencies for a uniform field ``b_t``."""
        nu = _frequencies(nu_hz)
        built = lines_at_fields(self.atoms, self.cell.isotope_fractions, [b_t])
        lines = _LineArrays.from_lines(built, self.cell, self.density_m3, 1)
        index = np.empty((2, nu.size), dtype=complex)
        _walk_chi(lines, nu, lambda columns, chi: np.sqrt(1.0 + chi, out=index[:, columns]))
        n_plus, n_minus = index
        return n_plus, n_minus

    def _propagate(self, nu_hz):
        """log t+- at ``nu_hz``, shape (2, frequencies) for one center and
        (2, centers, frequencies) for an array, block by block: each block's
        n+- of every field become that block's columns of log t+- per center,
        each center's nodes added one at a time in node order.

        Raises ValueError if either circular transfer exceeds unity (gain).
        """
        nu = _frequencies(nu_hz)
        n_fields, centers = self._fields.size, np.size(self.b_center_t)
        log_t = np.zeros((2, centers, nu.size), dtype=complex)

        def consume(columns, chi):
            k_vac = 2j * np.pi * nu[columns] / C_LIGHT
            for log_t_pol, n in zip(log_t, np.sqrt(1.0 + chi).reshape(2, n_fields, -1)):
                block = log_t_pol[:, columns]
                for where in self._where.T:
                    block += k_vac * (n[where] - 1.0) * self._dz

        _walk_chi(self._lines, nu, consume)
        # singular values of diag(t+, t-) are |t+|, |t-|; no frequencies, no gain
        gain = np.expm1(log_t.real.max(initial=-np.inf))
        if gain > 1e-12:
            raise ValueError(f"cell transfer has gain ({gain:.3g} above unity)")
        return log_t[:, 0] if np.ndim(self.b_center_t) == 0 else log_t

    def transfer_at(self, nu_hz):
        """Circular-basis diagonal transfer (t+, t-) with the field profile.

        The common vacuum phase exp(i 2 pi nu L / c) is dropped; only the
        differential phase and the attenuation are physical here.
        """
        log_t = self._propagate(nu_hz)
        t_plus, t_minus = np.exp(log_t, out=log_t)
        return t_plus, t_minus

    def transmission_at(self, nu_hz):
        """Intensity transmissions (|t+|^2, |t-|^2) = exp(2 Re log t+-), with
        no complex exponential."""
        trans = self._propagate(nu_hz).real * 2.0
        t_plus, t_minus = np.exp(trans, out=trans)
        return t_plus, t_minus

    def rotation_angle_at(self, nu_hz):
        """Faraday rotation angle theta(nu) accumulated along the path.

        Summed slice by slice rather than read off angle(t+/t-), so rotations
        beyond pi/2 are not wrapped.
        """
        log_t_plus, log_t_minus = self._propagate(nu_hz)
        return 0.5 * (log_t_plus.imag - log_t_minus.imag)


def transfer_vs_field(atoms: AtomLibrary, cell: VaporCellConfig, nu_hz: float, b_centers_t, slices: int = 16):
    """(t+, t-, theta) of the cell at the one frequency ``nu_hz``, one entry per
    center field in ``b_centers_t``: ``VaporPath`` over blocks of the centers.

    A block holds at most ``SCAN_BLOCK_NODES`` Gauss-node fields, so memory
    follows the block, not the number of centers.  Raises ValueError if a
    circular transfer exceeds unity (gain).
    """
    centers, nu = np.asarray(b_centers_t, dtype=float), _frequencies(nu_hz)
    if centers.ndim != 1 or centers.size == 0 or nu.size != 1:
        raise ConfigError("transfer_vs_field takes one probe frequency and a non-empty 1-D array of center fields")
    per_block = max(1, SCAN_BLOCK_NODES // (2 * _slice_count(cell, slices)))
    paths = (VaporPath(atoms, cell, centers[a : a + per_block], slices) for a in range(0, centers.size, per_block))
    log_t = np.concatenate([path._propagate(nu)[..., 0] for path in paths], axis=1)
    theta = 0.5 * (log_t[0].imag - log_t[1].imag)
    t_plus, t_minus = np.exp(log_t, out=log_t)
    return t_plus, t_minus, theta


def _voigt_fwhm_hz(lorentz_fwhm_hz, sigma_hz):
    """Voigt FWHM to about 2e-4 (Olivero & Longbothum, JQSRT 17, 233 (1977))."""
    gauss_fwhm = 2.0 * np.sqrt(_LN2) * sigma_hz
    return 0.5346 * lorentz_fwhm_hz + np.sqrt(0.2166 * lorentz_fwhm_hz**2 + gauss_fwhm**2)


def check_spacing(cell: VaporCellConfig, atoms: AtomLibrary, spacing_hz: float):
    """Raise ResolutionError if ``spacing_hz`` puts fewer than ``POINTS_PER_FWHM``
    grid points across the cell's narrowest Voigt line.  The widths come from
    each isotope's D1 frequency and do not depend on the field.  A temperature
    outside ``number_density``'s validated range is refused first."""
    _check_temperature(cell.temperature_k)
    try:
        width = min(
            _voigt_fwhm_hz(
                atoms[name].natural_fwhm_hz + cell.buffer_fwhm_hz,
                _doppler_sigma_hz(atoms[name].d1_frequency_hz, atoms[name].mass_kg, cell.temperature_k),
            )
            for name, fraction in cell.isotope_fractions.items()
            if fraction > 0
        )
    except OverflowError:
        raise ConfigError(f"buffer broadening {cell.buffer_fwhm_hz:.3g} Hz overflows the Voigt line width") from None
    required = width / POINTS_PER_FWHM
    if spacing_hz > required * (1 + 1e-9):
        raise ResolutionError(spacing_hz, required)


def blocking_cell_transmission(cell: VaporCellConfig, atoms: AtomLibrary):
    """Zero-field attenuation ``nu -> |t+|^2`` of a (typically hot, buffered)
    cell at any frequencies: it exports no grid, so no spacing to check."""
    path = VaporPath(atoms, cell, b_center_t=0.0, slices=1)
    return lambda nu_hz: path.transmission_at(nu_hz)[0]


def make_frequency_grid(
    center_hz: float, half_span_hz: float = 8e9, spacing_hz: float = 0.5e6
) -> np.ndarray:
    """Uniform grid center +- half_span; default resolves the natural width."""
    if not (np.isfinite(spacing_hz) and spacing_hz > 0 and np.isfinite(half_span_hz) and half_span_hz >= 0):
        raise ConfigError("grid spacing must be finite and > 0 and half span finite and >= 0")
    n = np.rint(half_span_hz / spacing_hz)
    check_points(2 * n + 1, "frequency grid")
    return center_hz + spacing_hz * np.arange(-int(n), int(n) + 1)
