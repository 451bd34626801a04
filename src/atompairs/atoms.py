"""Hyperfine + Zeeman structure of the rubidium D1 manifolds.

Builds product-basis Hamiltonians H = offset + A J.I (+ quadrupole) +
mu_B B (g_J Jz + g_I Iz), diagonalizes them per m_F block and enumerates
optical transition lines with Wigner-Eckart strengths.  Each step takes one
field or an array of fields: the Hamiltonians of all fields are one stack,
solved by one stacked eigh per m_F block size, and their dipole amplitudes
are one batched product.  What does not depend on the field (H0 and the
Zeeman operator per set of constants, the m_F block layout, the dipole
blocks) is built once per process.  Everything is in Hz and Tesla;
constants come from the shipped data file (see data/rb_d1.yaml for sources)
and can be overridden with a user file of the same schema.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import numpy as np
import yaml
from scipy.constants import physical_constants

from atompairs.errors import ConfigError, NumericError
from atompairs.wigner import spin_matrices, wigner_3j

MU_B_HZ_PER_T = physical_constants["Bohr magneton in Hz/T"][0]

_POLARIZATIONS = {"sigma+": 1, "pi": 0, "sigma-": -1}
_D1 = ("5S1/2", "5P1/2")  # ground and excited manifold of the lines


@dataclass(frozen=True)
class ManifoldConstants:
    label: str
    J: float
    g_J: float
    A_hfs_hz: float
    B_hfs_hz: float = 0.0
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


def load_atom_data(path=None) -> AtomLibrary:
    """Load isotope constants from ``path`` or from the shipped data file."""
    if path is None:
        text = resources.files("atompairs.data").joinpath("rb_d1.yaml").read_text()
    else:
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read atom data: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
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
                label: ManifoldConstants(
                    label=label,
                    J=float(m["J"]),
                    g_J=float(m["g_J"]),
                    A_hfs_hz=float(m["A_hfs_hz"]),
                    B_hfs_hz=float(m.get("B_hfs_hz", 0.0)),
                    offset_hz=float(m.get("offset_hz", 0.0)),
                )
                for label, m in iso["manifolds"].items()
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
def product_basis(J: float, I: float) -> tuple[tuple[float, float], ...]:
    """Ordered |m_J, m_I> basis: m_J ascending (outer), m_I ascending (inner)."""
    return tuple(
        (-J + kj, -I + ki) for kj in range(round(2 * J + 1)) for ki in range(round(2 * I + 1))
    )


@dataclass(frozen=True)
class ManifoldHamiltonian:
    isotope: str
    manifold: str
    J: float
    I: float
    basis: tuple[tuple[float, float], ...]
    matrix_hz: np.ndarray  # (dim, dim), or (fields, dim, dim) for an array of fields
    field_t: float | np.ndarray
    constants: ManifoldConstants | None = None

    @property
    def dim(self) -> int:
        return self.matrix_hz.shape[-1]

    def m_f(self) -> np.ndarray:
        return np.array([mj + mi for mj, mi in self.basis])


@functools.cache
def _field_free_operators(con: ManifoldConstants, I: float, g_I: float):
    """(H0, Z) of one manifold, so that H(B) = H0 + mu_B B Z.

    Keyed on the constants themselves, not the isotope name: a user atom-data
    file may give the same isotope other constants.
    """
    J = con.J
    jx, jy, jz = spin_matrices(J)
    ix, iy, iz = spin_matrices(I)
    eye_j = np.eye(round(2 * J + 1))
    eye_i = np.eye(round(2 * I + 1))

    j_dot_i = (
        np.kron(jx, ix) + np.kron(jy, iy).real + np.kron(jz, iz)
    )
    # J.I is real in this basis (jy x iy product of two imaginary matrices)
    h0 = con.offset_hz * np.kron(eye_j, eye_i) + con.A_hfs_hz * j_dot_i
    if con.B_hfs_hz != 0.0:
        denom = 2 * I * (2 * I - 1) * J * (2 * J - 1)
        h0 = h0 + con.B_hfs_hz * (
            3 * j_dot_i @ j_dot_i + 1.5 * j_dot_i - I * (I + 1) * J * (J + 1) * np.kron(eye_j, eye_i)
        ) / denom
    return _read_only(h0, con.g_J * np.kron(jz, eye_i) + g_I * np.kron(eye_j, iz))


def _hermiticity_defect(h: np.ndarray, rtol: float):
    """Largest |H - H^dag| over the matrices of ``h`` whose defect exceeds
    ``rtol`` times max(1, max |H|), or None if every matrix is within it."""
    defect = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = defect > rtol * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    return defect[bad].max() if bad.any() else None


def build_hamiltonian(
    iso: IsotopeData, manifold: str, b_field_t: float | np.ndarray
) -> ManifoldHamiltonian:
    """Hyperfine + Zeeman Hamiltonian of one manifold in the |m_J, m_I> basis.

    ``b_field_t`` is one field or a 1-D array of fields; an array gives one
    matrix per field, stacked along a leading axis.
    """
    b = np.asarray(b_field_t, dtype=float)
    if b.ndim > 1:
        raise ConfigError("fields must be one field or a 1-D array of fields")
    bad = b[~(np.isfinite(b) & (b >= 0))]
    if bad.size:
        raise ConfigError(f"field strength must be finite and >= 0 (got {float(bad[0])!r} T)")
    con = iso.manifold(manifold)
    J, I = con.J, iso.nuclear_spin
    if con.B_hfs_hz != 0.0 and (J <= 0.5 or I <= 0.5):
        raise ConfigError(
            f"{iso.name} {manifold}: quadrupole constant given but J or I is 1/2"
        )
    h0, zeeman = _field_free_operators(con, I, iso.g_I)
    h = h0 + (MU_B_HZ_PER_T * b)[..., None, None] * zeeman

    herm_defect = _hermiticity_defect(h, 1e-12)
    if herm_defect is not None:
        raise NumericError(f"constructed Hamiltonian not Hermitian (defect {herm_defect:g})")

    return ManifoldHamiltonian(
        isotope=iso.name,
        manifold=manifold,
        J=J,
        I=I,
        basis=product_basis(J, I),
        matrix_hz=h,
        field_t=b if b.ndim else float(b),
        constants=con,
    )


@dataclass(frozen=True)
class ZeemanSpectrum:
    """Eigen-decomposition of a ManifoldHamiltonian, ordered by energy; every
    array has the Hamiltonian's leading field axis, if it has one."""

    hamiltonian: ManifoldHamiltonian
    energies_hz: np.ndarray
    eigenvectors: np.ndarray  # columns, |m_J m_I> components
    m_f: np.ndarray  # exact total m_F per eigenstate
    f_labels: np.ndarray  # adiabatic F quantum number at b -> 0

    @property
    def dim(self) -> int:
        return self.energies_hz.shape[-1]

    @property
    def field_t(self) -> float:
        return self.hamiltonian.field_t


def _zero_field_f_energies(J: float, I: float, A: float, B: float) -> dict[float, float]:
    """Exact zero-field hyperfine energies per F (Lande interval formula)."""
    out = {}
    f = abs(J - I)
    while f <= J + I + 1e-9:
        k = f * (f + 1) - I * (I + 1) - J * (J + 1)
        e = 0.5 * A * k
        if B != 0.0:
            denom = 2 * I * (2 * I - 1) * 2 * J * (2 * J - 1)
            e += B * (1.5 * k * (k + 1) - 2 * I * (I + 1) * J * (J + 1)) / denom
        out[f] = e
        f += 1
    return out


@functools.cache
def _block_layout(basis, J: float, I: float, a_hfs: float, b_hfs: float):
    """The m_F blocks of ``basis``, ascending in m_F, grouped by block size.

    Returns (groups, m_f, f_labels).  Each group is (rows, cols), both of
    shape (n_blocks, size): the basis indices of its blocks and the output
    columns of their eigenvectors.  ``m_f`` and ``f_labels`` are per output
    column.  Within a block levels do not cross, so the k-th level connects
    to the k-th lowest zero-field F energy of that block; the sign of A
    matters (it sets which F lies lower), the offset does not.
    """
    mf = np.array([mj + mi for mj, mi in basis])
    con_f = _zero_field_f_energies(J, I, a_hfs, b_hfs)
    blocks: dict[int, list] = {}
    m_f_out, f_labels = [], []
    for mf_val in sorted(set(np.round(mf * 2).astype(int) / 2)):
        idx = np.where(np.abs(mf - mf_val) < 1e-9)[0]
        fs = sorted((f for f in con_f if abs(mf_val) <= f + 1e-9), key=con_f.get)
        blocks.setdefault(idx.size, []).append((idx, len(m_f_out) + np.arange(idx.size)))
        m_f_out += [mf_val] * idx.size
        f_labels += fs[: idx.size]
    groups = tuple(_read_only(*map(np.array, zip(*same))) for same in blocks.values())
    return (groups, *_read_only(np.array(m_f_out), np.array(f_labels)))


def diagonalize(ham: ManifoldHamiltonian) -> ZeemanSpectrum:
    """Per-m_F block eigensolve; energies ascending, F labels adiabatic.

    The blocks of one size, of every field, are solved together by one
    stacked ``eigh``.
    """
    h = ham.matrix_hz
    defect = _hermiticity_defect(h, 1e-9)
    if defect is not None:
        raise NumericError(f"Hamiltonian not Hermitian within tolerance (defect {defect:g})")

    a_hfs = ham.constants.A_hfs_hz if ham.constants is not None else 1.0
    b_hfs = ham.constants.B_hfs_hz if ham.constants is not None else 0.0
    groups, m_f_out, f_labels = _block_layout(ham.basis, ham.J, ham.I, a_hfs, b_hfs)

    energies = np.empty(h.shape[:-1])
    # the shipped manifolds give a real H, hence real eigenvectors and real
    # dipole products: half the memory and time of complex ones, same values
    vectors = np.zeros(h.shape, dtype=h.dtype)
    for rows, cols in groups:
        vals, vecs = np.linalg.eigh(h[..., rows[:, :, None], rows[:, None, :]])
        energies[..., cols] = vals
        vectors[..., rows[:, :, None], cols[:, None, :]] = vecs

    order = np.lexsort((np.broadcast_to(m_f_out, energies.shape), energies), axis=-1)
    return ZeemanSpectrum(
        hamiltonian=ham,
        energies_hz=np.take_along_axis(energies, order, -1),
        eigenvectors=np.take_along_axis(vectors, order[..., None, :], -1),
        m_f=m_f_out[order],
        f_labels=f_labels[order],
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
def _dipole_block(Jg: float, Je: float, I: float, q: int) -> np.ndarray:
    """<e_basis| d_q |g_basis> in units of <J'||d||J>, product bases."""
    bg = product_basis(Jg, I)
    be = product_basis(Je, I)
    out = np.zeros((len(be), len(bg)))
    for col, (mj, mi) in enumerate(bg):
        for row, (mj_e, mi_e) in enumerate(be):
            if abs(mi_e - mi) > 1e-9 or abs(mj_e - (mj + q)) > 1e-9:
                continue
            out[row, col] = (-1) ** round(Je - mj_e) * wigner_3j(
                Je, -mj_e, 1, q, Jg, mj
            )
    return _read_only(out)[0]


def transition_lines(
    ground: ZeemanSpectrum,
    excited: ZeemanSpectrum,
    polarization: str,
    iso: IsotopeData,
    strength_cut: float = 1e-12,
) -> LineSet:
    """Enumerate allowed lines for one polarization at the spectra's field or
    fields; lines come field by field, each field's in the same order.

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
    if ground.hamiltonian.isotope != iso.name:
        raise ConfigError("isotope mismatch between spectra and constants")

    q = _POLARIZATIONS[polarization]
    d_block = _dipole_block(
        ground.hamiltonian.J, excited.hamiltonian.J, iso.nuclear_spin, q
    )
    # amplitudes between dressed states, units of the reduced element; a
    # single field is a stack of one
    v_g = ground.eigenvectors.reshape(-1, ground.dim, ground.dim)
    v_e = excited.eigenvectors.reshape(-1, excited.dim, excited.dim)
    amps = v_e.conj().swapaxes(-1, -2) @ d_block @ v_g
    strengths = np.abs(amps) ** 2

    # |<J'||d||J>|^2 consistent with Gamma = w^3 |d|^2 / (3 pi eps0 hbar c^3 (2J'+1))
    dim_g = round(2 * ground.hamiltonian.J + 1)
    reduced_sq = dim_g * iso.reduced_dipole_cm**2

    # field outermost, then ground state, excited state inner
    field, lower, upper = np.nonzero(strengths.swapaxes(-1, -2) >= strength_cut)
    s = strengths[field, upper, lower]
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
    line's ``field`` is its index there."""
    fields = np.atleast_1d(np.asarray(fields_t, dtype=float))
    out = {"sigma+": [], "sigma-": []}
    for name, frac in fractions.items():
        if frac <= 0:
            continue
        iso = atoms[name]
        g, e = (diagonalize(build_hamiltonian(iso, label, fields)) for label in _D1)
        for pol in out:
            out[pol].append(transition_lines(g, e, pol, iso))
    return out


def kernel_elements_per_field(atoms: AtomLibrary, fractions: Mapping[str, float]) -> int:
    """Matrix elements ``lines_at_fields`` holds per field: for each isotope
    with nonzero fraction, the ground and excited Hamiltonians and eigenvector
    matrices, and one dim_e x dim_g amplitude matrix per circular polarization."""
    total = 0
    for name, frac in fractions.items():
        if frac > 0:
            iso = atoms[name]
            dim_g, dim_e = (len(product_basis(iso.manifold(label).J, iso.nuclear_spin)) for label in _D1)
            total += 2 * (dim_g**2 + dim_e**2) + 2 * dim_g * dim_e
    return total


def all_lines_for_cell(
    atoms: AtomLibrary,
    fractions: Mapping[str, float],
    b_field_t: float,
) -> dict[str, list[LineSet]]:
    """``lines_at_fields`` at the one field ``b_field_t``."""
    return lines_at_fields(atoms, fractions, [b_field_t])
