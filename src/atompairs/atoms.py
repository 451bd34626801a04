"""Hyperfine + Zeeman structure of the rubidium D1 manifolds.

Builds product-basis Hamiltonians H = offset + A J.I + mu_B B (g_J Jz + g_I Iz)
of J = 1/2 manifolds, solves them m_F block by m_F block and enumerates
optical transition lines with Wigner-Eckart strengths.  With J = 1/2 the
m_F blocks (Breit-Rabi structure) are the two stretched states and one pair
of states per m_F between; their entries and adiabatic F labels are written
in closed form, so no dense operator is built.  Each 2x2 block is solved in
closed form too, its levels and vectors read off one mixing angle.  A line's
amplitude <e|d_q|g> is summed from the few basis terms that the selection
rule leaves.

Each step takes one field or a 1-D array of fields:
``build_hamiltonian`` -> ``diagonalize`` -> ``transition_lines``.  A
Hamiltonian is held as its m_F block entries only; its dense matrix is a
derived view.  What does not depend on the field (the block entries of H0
and the Zeeman operator per set of constants, the m_F block layout, the
amplitude terms) is built once per process.  Everything is in Hz and Tesla;
constants come from the shipped data/rb_d1.json, whose "notes" give the
schema and sources; a user's YAML or JSON file of the same schema overrides them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import numpy as np

from atompairs.errors import ConfigError
from atompairs.wigner import wigner_3j

# Bohr magneton in Hz/T, CODATA 2022
MU_B_HZ_PER_T = 13996244917.1

_POLARIZATIONS = {"sigma+": 1, "pi": 0, "sigma-": -1}
_D1 = ("5S1/2", "5P1/2")  # ground and excited manifold of the lines


@dataclass(frozen=True)
class ManifoldConstants:
    label: str
    g_J: float
    A_hfs_hz: float
    offset_hz: float = 0.0


@dataclass(frozen=True)
class IsotopeData:
    """Constants of one isotope; see the data file for the unit conventions."""

    name: str
    nuclear_spin: float
    abundance: float
    mass_kg: float
    g_I: float
    natural_fwhm_hz: float
    d1_frequency_hz: float
    reduced_dipole_cm: float
    manifolds: Mapping[str, ManifoldConstants]

    def __post_init__(self):
        if self.nuclear_spin <= 0 or abs(2 * self.nuclear_spin % 1) > 1e-9:
            raise ConfigError(f"{self.name}: nuclear_spin must be a positive half-integer")
        if not 0.0 <= self.abundance <= 1.0:
            raise ConfigError(f"{self.name}: abundance outside [0, 1]")
        for name in ("mass_kg", "natural_fwhm_hz", "d1_frequency_hz", "reduced_dipole_cm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{self.name}: {name} must be strictly positive")

    def manifold(self, label: str) -> ManifoldConstants:
        try:
            return self.manifolds[label]
        except KeyError:
            raise ConfigError(
                f"{self.name}: unknown manifold {label!r}; have {sorted(self.manifolds)}"
            ) from None


@dataclass(frozen=True)
class VaporPressureModel:
    """log10(P[Torr]) = a - b/T with separate solid/liquid branches."""

    solid_a: float
    solid_b: float
    liquid_a: float
    liquid_b: float
    melting_point_k: float

    def pressure_pa(self, temperature_k: float) -> float:
        if temperature_k < self.melting_point_k:
            a, b = self.solid_a, self.solid_b
        else:
            a, b = self.liquid_a, self.liquid_b
        torr = 10.0 ** (a - b / temperature_k)
        return torr * 133.322368


@dataclass(frozen=True)
class AtomLibrary:
    isotopes: Mapping[str, IsotopeData]
    vapor_pressure: VaporPressureModel

    def __getitem__(self, name: str) -> IsotopeData:
        try:
            return self.isotopes[name]
        except KeyError:
            raise ConfigError(f"unknown isotope {name!r}; have {sorted(self.isotopes)}") from None

    def natural_fractions(self) -> dict[str, float]:
        return {name: iso.abundance for name, iso in self.isotopes.items()}

    def d1_center_hz(self, fractions: Mapping[str, float] | None = None) -> float:
        """Abundance-weighted centroid used as the frequency origin of spectra."""
        fractions = fractions or self.natural_fractions()
        total = sum(fractions.values())
        return (
            sum(self[n].d1_frequency_hz * f for n, f in fractions.items()) / total
        )


def _j_half_manifold(isotope: str, label: str, m) -> ManifoldConstants:
    """One manifold of the data file; only J = 1/2 without a quadrupole
    constant, the manifolds whose m_F blocks are at most 2x2."""
    j = float(m["J"])
    b_hfs = float(m.get("B_hfs_hz", 0.0))
    if j != 0.5 or b_hfs != 0.0:
        raise ConfigError(
            f"{isotope} {label}: J = {j:g}, B_hfs_hz = {b_hfs:g}; only J = 1/2 "
            "manifolds, which have no quadrupole term, are supported"
        )
    return ManifoldConstants(
        label=label,
        g_J=float(m["g_J"]),
        A_hfs_hz=float(m["A_hfs_hz"]),
        offset_hz=float(m.get("offset_hz", 0.0)),
    )


def load_atom_data(path=None) -> AtomLibrary:
    """Load isotope constants from a YAML or JSON file at ``path``, else the shipped JSON."""
    if path is None:
        raw = json.loads(resources.files("atompairs.data").joinpath("rb_d1.json").read_text())
    else:
        import yaml  # only a user's file needs it, so start-up does not pay its import
        try:
            with open(path, "r") as fh:
                raw = yaml.safe_load(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read atom data: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse atom data: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("atom data must hold a mapping")

    try:
        vp = raw["vapor_pressure"]
        pressure = VaporPressureModel(
            solid_a=float(vp["solid"]["a"]),
            solid_b=float(vp["solid"]["b"]),
            liquid_a=float(vp["liquid"]["a"]),
            liquid_b=float(vp["liquid"]["b"]),
            melting_point_k=float(vp["melting_point_k"]),
        )
        isotopes = {}
        for name, iso in raw["isotopes"].items():
            manifolds = {
                label: _j_half_manifold(name, label, m) for label, m in iso["manifolds"].items()
            }
            isotopes[name] = IsotopeData(
                name=name,
                nuclear_spin=float(iso["nuclear_spin"]),
                abundance=float(iso["abundance"]),
                mass_kg=float(iso["mass_kg"]),
                g_I=float(iso["g_I"]),
                natural_fwhm_hz=float(iso["natural_fwhm_hz"]),
                d1_frequency_hz=float(iso["d1_frequency_hz"]),
                reduced_dipole_cm=float(iso["reduced_dipole_cm"]),
                manifolds=manifolds,
            )
    except KeyError as exc:
        raise ConfigError(f"atom data is missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"atom data has a wrongly typed field: {exc}") from exc

    total = sum(i.abundance for i in isotopes.values())
    if abs(total - 1.0) > 1e-12:
        raise ConfigError(f"isotope abundances sum to {total!r}, expected 1")
    return AtomLibrary(isotopes=isotopes, vapor_pressure=pressure)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lock arrays that a cache hands to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def product_basis(I: float) -> tuple[tuple[float, float], ...]:
    """Ordered |m_J, m_I> basis of J = 1/2 and nuclear spin ``I``: m_J
    ascending (outer), m_I ascending (inner)."""
    return tuple(
        (m_j, -I + ki) for m_j in (-0.5, 0.5) for ki in range(round(2 * I + 1))
    )


@dataclass(frozen=True)
class ManifoldHamiltonian:
    isotope: str
    manifold: str
    I: float
    basis: tuple[tuple[float, float], ...]
    field_t: float | np.ndarray
    constants: ManifoldConstants
    # the lower-triangle m_F block entries, placed as ``_block_layout(basis)``
    # says: (entries,), or (fields, entries) for an array of fields
    block_entries_hz: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    def m_f(self) -> np.ndarray:
        return np.array([mj + mi for mj, mi in self.basis])

    @property
    def matrix_hz(self) -> np.ndarray:
        """The block entries as a dense symmetric matrix in the |m_J m_I>
        basis, (dim, dim) or (fields, dim, dim); zero between m_F blocks."""
        layout = _block_layout(self.basis)
        dense = np.zeros(self.block_entries_hz.shape[:-1] + (self.dim, self.dim))
        dense[..., layout.entry_cols, layout.entry_rows] = self.block_entries_hz
        dense[..., layout.entry_rows, layout.entry_cols] = self.block_entries_hz
        return dense


def _checked_fields(b_field_t) -> np.ndarray:
    b = np.asarray(b_field_t, dtype=float)
    if b.ndim > 1:
        raise ConfigError("fields must be one field or a 1-D array of fields")
    bad = b[~(np.isfinite(b) & (b >= 0))]
    if bad.size:
        raise ConfigError(f"field strength must be finite and >= 0 (got {float(bad[0])!r} T)")
    return b


def build_hamiltonian(iso: IsotopeData, manifold: str, b_field_t: float | np.ndarray) -> ManifoldHamiltonian:
    """Hyperfine + Zeeman Hamiltonian of one manifold in the |m_J, m_I> basis,
    as its m_F block entries H0 + mu_B B Z.

    ``b_field_t`` is one field or a 1-D array of fields; an array gives one
    row of entries per field, stacked along a leading axis.
    """
    b = _checked_fields(b_field_t)
    con = iso.manifold(manifold)
    I = iso.nuclear_spin
    h0, zeeman = _block_operators(con, I, iso.g_I)
    return ManifoldHamiltonian(
        isotope=iso.name,
        manifold=manifold,
        I=I,
        basis=product_basis(I),
        field_t=b if b.ndim else float(b),
        constants=con,
        block_entries_hz=h0 + (MU_B_HZ_PER_T * b)[..., None] * zeeman,
    )


@dataclass(frozen=True)
class _BlockLayout:
    """Where the m_F blocks of one basis sit, each block 1x1 or 2x2.

    A block solve reads the lower-triangle entries at (``entry_rows``,
    ``entry_cols``): the diagonal of the ``singles`` 1x1 blocks, then a, then
    b, then c of the ``pairs`` 2x2 blocks [[a, b], [b, c]], each run in
    ascending m_F.  It gives the levels in the same grouping: the 1x1
    blocks', the lower level of each 2x2 block, then the upper one; ``m_f``
    is per level.  Each level's eigenvector has one component per basis
    state of its block, at (``vector_rows``, ``vector_levels``): the 1x1
    blocks' ones, then v00, v10, v01 and v11 of the 2x2 blocks, v_kj being
    component k of the block's level j.
    """

    singles: int
    pairs: int
    entry_rows: np.ndarray
    entry_cols: np.ndarray
    vector_rows: np.ndarray
    vector_levels: np.ndarray
    m_f: np.ndarray


@functools.cache
def _block_layout(basis) -> _BlockLayout:
    """The m_F block layout of the J = 1/2 product basis ``basis``: the
    stretched states m_F = -(I + 1/2) and I + 1/2 are the 1x1 blocks, and
    every m_F between holds the pair |m_J = -1/2, m_I = m_F + 1/2>,
    |m_J = +1/2, m_I = m_F - 1/2>."""
    I = basis[-1][1]
    n = len(basis) // 2  # 2I + 1 states per m_J
    one, r0, r1 = np.array([0, 2 * n - 1]), np.arange(1, n), n + np.arange(n - 1)
    low, high = 2 + np.arange(n - 1), n + 1 + np.arange(n - 1)
    pair_m_f = -I + 0.5 + np.arange(n - 1)
    return _BlockLayout(
        2,
        n - 1,
        *_read_only(
            np.concatenate([one, r0, r1, r1]),  # entry_rows
            np.concatenate([one, r0, r0, r1]),  # entry_cols
            np.concatenate([one, r0, r1, r0, r1]),  # vector_rows
            np.concatenate([np.arange(2), low, low, high, high]),  # vector_levels
            np.concatenate([[-(I + 0.5), I + 0.5], pair_m_f, pair_m_f]),  # m_f
        ),
    )


@functools.cache
def _block_operators(con: ManifoldConstants, I: float, g_I: float):
    """The m_F block entries of H0 = offset + A J.I and Z = g_J Jz + g_I Iz
    that a block solve reads, so that the entries of H(B) are H0 + mu_B B Z.

    A diagonal entry is offset + A m_J m_I and g_J m_J + g_I m_I of its
    state.  Within a pair, J.I couples the two states by
    sqrt(I(I+1) - m(m+1)) / 2, m being the lower m_I, and Z by 0.  Each entry
    is rounded as the Kronecker-product sum rounds it, zeros signed alike.

    Keyed on the constants themselves, not the isotope name: a user atom-data
    file may give the same isotope other constants.
    """
    basis = product_basis(I)
    layout = _block_layout(basis)
    m_j, m_i = np.array(basis)[layout.entry_rows].T
    # the Kronecker sum adds +0.0 terms: m_J m_I = -0.0 gives +0.0
    h0 = con.offset_hz + con.A_hfs_hz * (m_j * m_i + 0.0)
    zeeman = con.g_J * m_j + g_I * m_i
    b = slice(layout.singles + layout.pairs, layout.singles + 2 * layout.pairs)
    m = m_i[b]  # row b is the pair's |+1/2, m> state
    h0[b] = con.offset_hz * 0.0 + con.A_hfs_hz * (0.5 * np.sqrt(I * (I + 1) - m * (m + 1)))
    zeeman[b] = con.g_J * 0.0 + g_I * 0.0
    return _read_only(h0, zeeman)


@functools.cache
def _f_labels(I: float, a_hfs: float) -> np.ndarray:
    """Adiabatic F label of each level of the J = 1/2 block layout.  The
    stretched states have F = I + 1/2.  Within a pair levels do not cross, so
    the lower one connects to the F that lies lower at zero field: I - 1/2,
    or I + 1/2 when A < 0; the offset does not matter."""
    low, high = (I + 0.5, I - 0.5) if a_hfs < 0 else (I - 0.5, I + 0.5)
    pairs = round(2 * I)
    return _read_only(np.repeat([I + 0.5, low, high], [2, pairs, pairs]))[0]


def _solve_2x2(a, b, c):
    """Levels and vectors of the real symmetric blocks [[a, b], [b, c]],
    elementwise over arrays, in the Breit-Rabi closed form: with
    h = (a - c)/2, r = hypot(h, b) and the mixing angle phi = atan2(b, h)/2,
    the levels are (a + c)/2 -+ r, the upper one's vector (cos phi, sin phi)
    and the lower one's (-sin phi, cos phi).
    Returns ((w0, w1), (v00, v10, v01, v11)), levels ascending and v_kj
    component k of level j.
    """
    h = 0.5 * (a - c)
    mean, r, phi = 0.5 * (a + c), np.hypot(h, b), 0.5 * np.arctan2(b, h)
    cos, sin = np.cos(phi), np.sin(phi)
    return (mean - r, mean + r), (-sin, cos, cos, sin)


@dataclass(frozen=True)
class ZeemanSpectrum:
    """Levels of one manifold at one field, or at each of a 1-D array of
    fields (every per-level array then has a leading field axis), solved m_F
    block by m_F block.

    Levels are ordered by energy, levels of bitwise-equal energy by m_F.
    Levels degenerate only in exact arithmetic, such as the m_F of one F at
    B = 0, come out in the order their rounded energies give.
    """

    isotope: str
    manifold: str
    field_t: float | np.ndarray
    layout: _BlockLayout
    energies_hz: np.ndarray
    m_f: np.ndarray  # exact total m_F per level
    f_labels: np.ndarray  # adiabatic F quantum number at b -> 0
    rank: np.ndarray  # the level index of each layout level
    components: np.ndarray  # eigenvector components, placed as the layout says

    @property
    def dim(self) -> int:
        return self.energies_hz.shape[-1]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Eigenvectors as the columns of a dense matrix in the |m_J m_I> basis."""
        rank = self.rank.reshape(-1, self.dim)
        dense = np.zeros((rank.shape[0], self.dim, self.dim))
        dense[np.arange(rank.shape[0])[:, None], self.layout.vector_rows, rank[:, self.layout.vector_levels]] = (
            self.components.reshape(rank.shape[0], -1)
        )
        return dense.reshape(self.energies_hz.shape + (self.dim,))


def diagonalize(ham: ManifoldHamiltonian) -> ZeemanSpectrum:
    """Per-m_F block eigensolve of a Hamiltonian's block entries; energies
    ascending, F labels adiabatic."""
    layout = _block_layout(ham.basis)
    entries = ham.block_entries_hz
    f_labels = _f_labels(ham.I, ham.constants.A_hfs_hz)
    n1, n2 = layout.singles, layout.pairs
    single = entries[..., :n1]
    (w0, w1), vectors = _solve_2x2(*(entries[..., n1 + k * n2 : n1 + (k + 1) * n2] for k in range(3)))
    energies = np.concatenate([single, w0, w1], axis=-1)
    shape, dim = energies.shape, energies.shape[-1]
    energies = energies.reshape(-1, dim)
    order = np.lexsort((np.broadcast_to(layout.m_f, energies.shape), energies))
    field = np.arange(energies.shape[0])[:, None]
    rank = np.empty_like(order)
    rank[field, order] = np.arange(dim)
    return ZeemanSpectrum(
        isotope=ham.isotope,
        manifold=ham.manifold,
        field_t=ham.field_t,
        layout=layout,
        energies_hz=energies[field, order].reshape(shape),
        m_f=layout.m_f[order].reshape(shape),
        f_labels=f_labels[order].reshape(shape),
        rank=rank.reshape(shape),
        components=np.concatenate([np.ones_like(single), *vectors], axis=-1),
    )


@dataclass(frozen=True)
class LineSet:
    """The optical lines of one isotope and polarization, one entry per line."""

    field: np.ndarray  # index of the line's field in the fields it was built for
    lower: np.ndarray  # ground eigenstate index
    upper: np.ndarray  # excited eigenstate index
    frequency_hz: np.ndarray
    strength: np.ndarray  # |<e|d_q|g>|^2 in units of |<J'||d||J>|^2
    dipole_sq: np.ndarray  # |<e|d_q|g>|^2 in SI (C^2 m^2)
    polarization: str
    population: float  # thermal weight of each lower state
    isotope: str
    mass_kg: float
    natural_fwhm_hz: float

    def __len__(self) -> int:
        return self.lower.size


@functools.cache
def _dipole_block(I: float, q: int):
    """<e|d_q|g> between the levels of the J = 1/2 ground and excited
    product bases of nuclear spin ``I``, in units of <J'||d||J>, in m_F
    block form.

    Returns (lower, upper, g, e, d): the ground and excited layout level of
    each level pair that d_q connects, and per basis term of its amplitude
    sum_k (v_e[r_k] d_k) v_g[c_k], in ascending ground-basis order, the
    ground and excited component indices and the dipole element, each of
    shape (terms, pairs).  A pair with fewer terms than the most is padded
    with zero elements.
    """
    basis = product_basis(I)
    dense = np.zeros((len(basis), len(basis)))
    for col, (mj, mi) in enumerate(basis):
        for row, (mj_e, mi_e) in enumerate(basis):
            if abs(mi_e - mi) > 1e-9 or abs(mj_e - (mj + q)) > 1e-9:
                continue
            dense[row, col] = (-1) ** round(0.5 - mj_e) * wigner_3j(
                0.5, -mj_e, 1, q, 0.5, mj
            )
    layout = _block_layout(basis)
    pairs: dict[tuple[int, int], list] = {}
    for g, (col, lower) in enumerate(zip(layout.vector_rows, layout.vector_levels)):
        for e, (row, upper) in enumerate(zip(layout.vector_rows, layout.vector_levels)):
            if dense[row, col] != 0.0:
                pairs.setdefault((lower, upper), []).append((col, g, e, dense[row, col]))
    depth = max(map(len, pairs.values()))
    g_index = np.zeros((depth, len(pairs)), dtype=int)
    e_index = np.zeros_like(g_index)
    d = np.zeros(g_index.shape)
    for k, terms in enumerate(pairs.values()):
        for t, (_, g, e, element) in enumerate(sorted(terms)):
            g_index[t, k], e_index[t, k], d[t, k] = g, e, element
    lower, upper = np.array(list(pairs), dtype=int).T
    return _read_only(lower, upper, g_index, e_index, d)


def transition_lines(
    ground: ZeemanSpectrum,
    excited: ZeemanSpectrum,
    polarization: str,
    iso: IsotopeData,
    strength_cut: float = 1e-12,
) -> LineSet:
    """Enumerate allowed lines for one polarization at the spectra's field or
    fields; lines come field by field, each field's ordered by ground state,
    then excited state.  A pair of levels that the selection rule does not
    connect is never a line, whatever the cut.

    Each amplitude is summed from its basis terms (v_e d) v_g in ascending
    ground-basis order, as the dense product V_e^T D V_g sums them: one term
    for a circular line, two for a pi line.

    Lower-state populations are uniform over the ground manifold (hyperfine
    splittings are far below k_B T in the 300-380 K range this targets, so
    the thermal weights differ from uniform by <0.1%).
    """
    if polarization not in _POLARIZATIONS:
        raise ConfigError(f"polarization must be one of {sorted(_POLARIZATIONS)}")
    b_g, b_e = np.asarray(ground.field_t), np.asarray(excited.field_t)
    if b_g.shape != b_e.shape or np.any(np.abs(b_g - b_e) > 1e-15):
        raise ConfigError(
            "ground and excited spectra evaluated at different fields "
            f"({ground.field_t} vs {excited.field_t} T)"
        )
    if ground.isotope != iso.name:
        raise ConfigError("isotope mismatch between spectra and constants")

    lower_level, upper_level, g_index, e_index, d = _dipole_block(
        iso.nuclear_spin, _POLARIZATIONS[polarization]
    )
    # a single field is a stack of one
    v_g = ground.components.reshape(-1, ground.components.shape[-1])
    v_e = excited.components.reshape(-1, excited.components.shape[-1])
    amps = (v_e[:, e_index[0]] * d[0]) * v_g[:, g_index[0]]
    for g, e, d_term in zip(g_index[1:], e_index[1:], d[1:]):
        amps = amps + (v_e[:, e] * d_term) * v_g[:, g]
    strengths = np.abs(amps) ** 2

    field, pair = np.nonzero(strengths >= strength_cut)
    lower = ground.rank.reshape(-1, ground.dim)[field, lower_level[pair]]
    upper = excited.rank.reshape(-1, excited.dim)[field, upper_level[pair]]
    # field outermost, then ground state, excited state inner
    order = np.argsort((field * ground.dim + lower) * excited.dim + upper)
    field, pair, lower, upper = field[order], pair[order], lower[order], upper[order]
    s = strengths[field, pair]

    # |<J'||d||J>|^2 = (2J + 1) |d|^2 at J = 1/2, consistent with Gamma = w^3 |d|^2 / (3 pi eps0 hbar c^3 (2J'+1))
    reduced_sq = 2 * iso.reduced_dipole_cm**2
    e_g = ground.energies_hz.reshape(-1, ground.dim)
    e_e = excited.energies_hz.reshape(-1, excited.dim)
    return LineSet(
        field=field,
        lower=lower,
        upper=upper,
        frequency_hz=e_e[field, upper] - e_g[field, lower],
        strength=s,
        dipole_sq=s * reduced_sq,
        polarization=polarization,
        population=1.0 / ground.dim,
        isotope=iso.name,
        mass_kg=iso.mass_kg,
        natural_fwhm_hz=iso.natural_fwhm_hz,
    )


def lines_at_fields(
    atoms: AtomLibrary,
    fractions: Mapping[str, float],
    fields_t,
) -> dict[str, list[LineSet]]:
    """Per circular polarization, one D1 LineSet for each isotope with nonzero
    fraction, holding the lines of every field of the 1-D ``fields_t``; a
    line's ``field`` is its index there.

    ``transition_lines`` of ``diagonalize`` of ``build_hamiltonian``, each
    called once per manifold for all the fields.
    """
    fields = _checked_fields(np.atleast_1d(np.asarray(fields_t, dtype=float)))
    out = {"sigma+": [], "sigma-": []}
    for name, frac in fractions.items():
        if frac <= 0:
            continue
        iso = atoms[name]
        ground, excited = (diagonalize(build_hamiltonian(iso, label, fields)) for label in _D1)
        for pol in out:
            out[pol].append(transition_lines(ground, excited, pol, iso))
    return out


def all_lines_for_cell(
    atoms: AtomLibrary,
    fractions: Mapping[str, float],
    b_field_t: float,
) -> dict[str, list[LineSet]]:
    """``lines_at_fields`` at the one field ``b_field_t``."""
    return lines_at_fields(atoms, fractions, [b_field_t])
