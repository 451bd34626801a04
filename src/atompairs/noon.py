"""Two-photon polarization states through waveplates and a Faraday cell.

States live in the ordered product basis {HH, HV, VH, VV}.  Loss is carried
as a trace deficit: a contractive single-photon Jones J splits each photon
into Kraus branches {detected: J, lost: sqrt(I - J^dag J)}, which yields the
complete outcome classes (two detected, one detected, none) needed for the
Fisher-information bookkeeping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from atompairs.errors import ConfigError, NumericError
from atompairs.vapor import VaporCellConfig, VaporPath

BASIS = ("HH", "HV", "VH", "VV")

# columns are the sigma+ / sigma- circular states in the H/V basis
_V_CIRC = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)


def hwp_jones(angle_rad: float) -> np.ndarray:
    c, s = np.cos(2 * angle_rad), np.sin(2 * angle_rad)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_jones(angle_rad: float) -> np.ndarray:
    r = np.array(
        [[np.cos(angle_rad), -np.sin(angle_rad)], [np.sin(angle_rad), np.cos(angle_rad)]]
    )
    return r @ np.diag([1.0, 1.0j]) @ r.T


def rotation_jones(theta_rad: float) -> np.ndarray:
    """Lossless polarization rotation (ideal Faraday channel)."""
    return circular_jones(np.exp(1j * theta_rad), np.exp(-1j * theta_rad))


def circular_jones(t_plus: complex, t_minus: complex) -> np.ndarray:
    """H/V Jones of a medium diagonal in the circular basis."""
    return _V_CIRC @ np.diag([t_plus, t_minus]) @ _V_CIRC.conj().T


@dataclass(frozen=True)
class TwoPhotonPolState:
    """4x4 density matrix over {HH, HV, VH, VV}; trace deficit = loss."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ConfigError("density matrix must be 4x4")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ConfigError("density matrix must be Hermitian")
        eig = np.linalg.eigvalsh(rho)
        if eig.min() < -1e-12:
            raise ConfigError(f"density matrix not PSD (min eigenvalue {eig.min():.2e})")
        tr = float(np.real(np.trace(rho)))
        if not -1e-12 <= tr <= 1.0 + 1e-12:
            raise ConfigError(f"trace {tr} outside [0, 1]")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def normalized(self) -> "TwoPhotonPolState":
        tr = self.trace
        if tr <= 0:
            raise ConfigError("zero-trace state cannot be normalized")
        return TwoPhotonPolState(self.rho / tr)


def pure_state(vec) -> TwoPhotonPolState:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return TwoPhotonPolState(np.outer(v, v.conj()))


def make_noon_from_pair(imbalance: float = 0.0) -> TwoPhotonPolState:
    """Symmetrized |HV> pair, which is the N=2 NooN state in the circular basis.

    ``imbalance`` mixes in a small |VV> amplitude, mimicking the residual H/V
    asymmetry that makes singles rates field-dependent in practice.
    """
    v = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    if imbalance:
        v = v + imbalance * np.array([0.0, 0.0, 0.0, 1.0])
    return pure_state(v)


def noon_state(phase_rad: float = 0.0) -> TwoPhotonPolState:
    """(|HH> + e^{2 i phi} |VV>)/sqrt(2)."""
    v = np.array([1.0, 0.0, 0.0, np.exp(2j * phase_rad)]) / np.sqrt(2.0)
    return pure_state(v)


def surrogate_noon_state(fidelity: float = 0.99, two_phi: float = 0.20) -> TwoPhotonPolState:
    """Mixed stand-in for a tomographically reconstructed pair state.

    Ideal NooN at coherence phase ``two_phi`` with the infidelity spread
    isotropically over the orthogonal subspace; by construction its best
    NooN fidelity equals ``fidelity`` at that phase.
    """
    if not 0.25 <= fidelity <= 1.0:
        raise ConfigError("fidelity below the maximally mixed floor or above 1")
    target = noon_state(two_phi / 2.0).rho
    complement = (np.eye(4) - target) / 3.0
    return TwoPhotonPolState(fidelity * target + (1.0 - fidelity) * complement)


def circular_amplitudes(state: TwoPhotonPolState) -> dict[str, complex]:
    """Projections of the (pure part of the) state onto |LL>, |LR+RL>, |RR>."""
    u = _V_CIRC  # |sigma+> ~ L, |sigma-> ~ R columns
    u2 = np.kron(u, u)
    rho_c = u2.conj().T @ state.rho @ u2
    return {
        "LL": rho_c[0, 0],
        "RR": rho_c[3, 3],
        "LL,RR": rho_c[0, 3],
    }


@dataclass(frozen=True)
class OpticalElement:
    """Single-photon element applied to both photons of the pair."""

    kind: str  # HWP | QWP | cell | rotation
    jones: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.jones, dtype=complex)
        if j.shape != (2, 2):
            raise ConfigError("Jones matrix must be 2x2")
        sv = np.linalg.svd(j, compute_uv=False)
        if sv.max() > 1.0 + 1e-9:
            raise ConfigError("element has gain; Jones singular values must be <= 1")
        if self.kind in ("HWP", "QWP", "rotation"):
            if np.abs(j @ j.conj().T - np.eye(2)).max() > 1e-12:
                raise ConfigError(f"{self.kind} Jones must be unitary")

    @classmethod
    def hwp(cls, angle_rad: float):
        return cls(kind="HWP", jones=hwp_jones(angle_rad))

    @classmethod
    def qwp(cls, angle_rad: float):
        return cls(kind="QWP", jones=qwp_jones(angle_rad))

    @classmethod
    def faraday_cell(cls, path: VaporPath, nu_hz: float):
        t_plus, t_minus = path.transfer_at(np.array([nu_hz]))
        return cls(kind="cell", jones=circular_jones(t_plus[0], t_minus[0]))


def apply_element(state: TwoPhotonPolState, element: OpticalElement) -> TwoPhotonPolState:
    j2 = np.kron(element.jones, element.jones)
    return TwoPhotonPolState(j2 @ state.rho @ j2.conj().T)


@dataclass(frozen=True)
class OutcomeProbabilities:
    """Complete detection classes for one pair through channel + analyzer."""

    hh: float
    hv: float
    vv: float
    one_h: float
    one_v: float
    none: float

    def as_array(self) -> np.ndarray:
        return np.array([self.hh, self.hv, self.vv, self.one_h, self.one_v, self.none])

    @property
    def singles_h(self) -> float:
        """Expected H detections per pair."""
        return 2 * self.hh + self.hv + self.one_h

    @property
    def singles_v(self) -> float:
        return 2 * self.vv + self.hv + self.one_v

    @property
    def expected_lost(self) -> float:
        return self.one_h + self.one_v + 2 * self.none


def _loss_kraus(jones: np.ndarray) -> np.ndarray:
    """K with K^dag K = I - J^dag J (photon absorbed)."""
    gram = np.eye(2) - jones.conj().T @ jones
    vals, vecs = np.linalg.eigh(gram)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def measurement_rates(
    state: TwoPhotonPolState,
    channel: np.ndarray | None = None,
    analyzer_hwp_rad: float = 0.0,
    analyzer_qwp: bool = False,
    analyzer_qwp_rad: float = np.pi / 4,
) -> OutcomeProbabilities:
    """Project the pair onto the analyzer basis behind an optional channel.

    The analyzer is [QWP at ``analyzer_qwp_rad`` if enabled] then HWP then a
    polarizing splitter; coincidences HH/HV/VV count unordered outcomes and
    the one-photon classes absorb the channel loss.
    """
    j = np.eye(2, dtype=complex) if channel is None else np.asarray(channel, complex)
    analyzer = hwp_jones(analyzer_hwp_rad)
    if analyzer_qwp:
        analyzer = analyzer @ qwp_jones(analyzer_qwp_rad)

    m = analyzer @ j
    kraus = {
        "H": np.outer([1.0, 0.0], m[0, :]),
        "V": np.outer([0.0, 1.0], m[1, :]),
        "L": _loss_kraus(j),
    }

    def prob(a, b):
        k2 = np.kron(kraus[a], kraus[b])
        return float(np.real(np.trace(k2 @ state.rho @ k2.conj().T)))

    return OutcomeProbabilities(
        hh=prob("H", "H"),
        hv=prob("H", "V") + prob("V", "H"),
        vv=prob("V", "V"),
        one_h=prob("H", "L") + prob("L", "H"),
        one_v=prob("V", "L") + prob("L", "V"),
        none=prob("L", "L"),
    )


def noon_fidelity(state: TwoPhotonPolState, phase_rad: float | None = None):
    """Overlap with the ideal NooN state, renormalizing the input trace.

    With ``phase_rad`` given returns F(phi); otherwise returns
    (F_max, phi_max) maximized analytically over the coherence phase.
    """
    rho = state.normalized().rho
    if phase_rad is not None:
        v = np.array([1.0, 0.0, 0.0, np.exp(2j * phase_rad)]) / np.sqrt(2.0)
        return float(np.real(v.conj() @ rho @ v))
    base = 0.5 * float(np.real(rho[0, 0] + rho[3, 3]))
    coh = rho[0, 3]
    f_max = base + abs(coh)
    phi_max = 0.5 * float(np.angle(rho[3, 0]))
    return f_max, phi_max


@dataclass(frozen=True)
class SensingScanPoint:
    b_t: float
    probabilities: OutcomeProbabilities
    eta: float  # transmitted fraction through the cell
    rotation_rad: float

    @property
    def coincidences(self) -> dict[str, float]:
        p = self.probabilities
        return {"HH": p.hh, "HV": p.hv, "VV": p.vv}


def sensing_scan(
    state: TwoPhotonPolState,
    cell: VaporCellConfig,
    atoms,
    nu_hz: float,
    b_list_t,
    analyzer_hwp_rad: float = 0.0,
    slices: int = 16,
) -> list[SensingScanPoint]:
    """Pair outcome probabilities versus applied field at one probe frequency."""
    nu = np.array([nu_hz])
    points = []
    for b in np.asarray(b_list_t, dtype=float):
        path = VaporPath(atoms, cell, float(b), slices=slices)
        # one propagation: rotation_angle_at reuses what transfer_at computed
        t_plus, t_minus = path.transfer_at(nu)
        theta = float(path.rotation_angle_at(nu)[0])
        jones = circular_jones(t_plus[0], t_minus[0])
        probs = measurement_rates(state, channel=jones, analyzer_hwp_rad=analyzer_hwp_rad)
        eta = float((np.abs(t_plus[0]) ** 2 + np.abs(t_minus[0]) ** 2) / 2.0)
        points.append(
            SensingScanPoint(
                b_t=float(b), probabilities=probs, eta=eta, rotation_rad=theta
            )
        )
    return points


def count_oscillations(values) -> float:
    """Number of full oscillations as midrange-crossing pairs.

    A signal whose swing is negligible against its magnitude counts as zero
    oscillations rather than as numerical-noise crossings.
    """
    v = np.asarray(values, dtype=float)
    swing = v.max() - v.min()
    if swing <= 1e-9 * max(np.abs(v).max(), 1e-300):
        return 0.0
    centered = v - (v.max() + v.min()) / 2.0
    signs = np.sign(centered)
    signs = signs[signs != 0]
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    return crossings / 2.0


def visibility(values) -> float:
    v = np.asarray(values, dtype=float)
    return float((v.max() - v.min()) / (v.max() + v.min()))


def _fisher_from_probabilities(p: np.ndarray, dp: np.ndarray, floor: float = 1e-12) -> float:
    mask = p > floor
    return float(np.sum(dp[mask] ** 2 / p[mask]))


@dataclass(frozen=True)
class FisherReport:
    b_t: float
    fi_pair: float
    fi_per_photon: float
    fi_per_scattered: float
    sql_per_photon: float | None = None
    sql_per_scattered: float | None = None

    @property
    def sql_ratio(self) -> float | None:
        if self.sql_per_photon in (None, 0.0):
            return None
        return self.fi_per_photon / self.sql_per_photon


def fisher_information(
    scan: list[SensingScanPoint],
    at_b_t: float,
    rel_check: float = 0.05,
) -> FisherReport:
    """Multinomial Fisher information per pair at one scan point.

    Uses centred finite differences on the scan's own B grid and a
    step-halving (Richardson) consistency check: the scan must be uniform
    with spacing <= 0.5 mT and contain at_b +- 2 steps.
    """
    b = np.array([pt.b_t for pt in scan])
    db = np.diff(b)
    if b.size < 5 or np.abs(db - db[0]).max() > 1e-12:
        raise ConfigError("scan must be uniform in B with at least 5 points")
    h = float(db[0])
    if h > 0.5e-3 + 1e-12:
        raise ConfigError("scan spacing must be <= 0.5 mT for stable derivatives")
    i = int(np.argmin(np.abs(b - at_b_t)))
    if i < 2 or i > b.size - 3:
        raise ConfigError("need scan points at_b +- 2 steps for the Richardson check")

    p_tab = np.stack([pt.probabilities.as_array() for pt in scan])
    p0 = p_tab[i]
    d_h = (p_tab[i + 1] - p_tab[i - 1]) / (2 * h)
    d_2h = (p_tab[i + 2] - p_tab[i - 2]) / (4 * h)
    fi_h = _fisher_from_probabilities(p0, d_h)
    d_rich = (4.0 * d_h - d_2h) / 3.0
    fi_rich = _fisher_from_probabilities(p0, d_rich)
    if fi_rich > 0 and abs(fi_h - fi_rich) > rel_check * fi_rich:
        raise NumericError(
            f"finite-difference Fisher information unstable: h term {fi_h:.4g} "
            f"vs Richardson {fi_rich:.4g}"
        )

    lost = scan[i].probabilities.expected_lost
    return FisherReport(
        b_t=float(b[i]),
        fi_pair=fi_rich,
        fi_per_photon=fi_rich / 2.0,
        fi_per_scattered=fi_rich / lost if lost > 0 else float("inf"),
    )


def probe_transfer(cell: VaporCellConfig, atoms, nu_hz: float):
    """``b -> (t+, t-)`` of the 16-slice cell at the probe frequency, cached.

    The Fisher estimates evaluate the cell at b and b +- h, some points more
    than once; one of these shared between them builds each cell once.
    """

    @functools.cache
    def transfer(b):
        path = VaporPath(atoms, cell, float(b), slices=16)
        t_plus, t_minus = path.transfer_at(np.array([nu_hz]))
        return t_plus[0], t_minus[0]

    return transfer


def fisher_information_frozen_loss(
    state: TwoPhotonPolState,
    transfer,
    at_b_t: float,
    h_t: float = 0.25e-3,
    analyzer_hwp_rad: float = 0.0,
) -> tuple[float, float]:
    """(FI_pair with live loss, FI_pair with |t| frozen at at_b) per pair.

    ``transfer(b) -> (t+, t-)`` is the cell's circular transfer at the probe
    frequency, usually ``probe_transfer(...)``.  Freezing replaces |t+-(B)| by
    its value at the operating point while the circular phases still follow
    B, isolating the information carried by the field dependence of the
    absorption itself.
    """
    tp0, tm0 = transfer(at_b_t)

    def probs(b, frozen):
        tp, tm = transfer(b)
        if frozen:
            tp = abs(tp0) * np.exp(1j * np.angle(tp))
            tm = abs(tm0) * np.exp(1j * np.angle(tm))
        jones = circular_jones(tp, tm)
        return measurement_rates(
            state, channel=jones, analyzer_hwp_rad=analyzer_hwp_rad
        ).as_array()

    out = []
    for frozen in (False, True):
        p0 = probs(at_b_t, frozen)
        dp = (probs(at_b_t + h_t, frozen) - probs(at_b_t - h_t, frozen)) / (2 * h_t)
        out.append(_fisher_from_probabilities(p0, dp))
    return out[0], out[1]


def sql_fisher_information(
    channel_fn,
    at_b_t: float,
    h_t: float = 0.25e-3,
    grid_points: int = 13,
) -> float:
    """Best single-photon Fisher information through ``channel_fn(b) -> 2x2``.

    Optimization runs over the probe polarization (Bloch angles) and the
    analyzer basis, with the lost-photon class included; coarse deterministic
    grid then Nelder-Mead refinement.
    """
    j_0 = np.asarray(channel_fn(at_b_t), dtype=complex)
    # derivative of the channel itself; amplitudes are smooth in B, so this
    # avoids the dark-fringe artifact of differencing |amplitude|^2 directly
    dj = (
        np.asarray(channel_fn(at_b_t + h_t), dtype=complex)
        - np.asarray(channel_fn(at_b_t - h_t), dtype=complex)
    ) / (2 * h_t)

    def fi_of(params):
        a, b_ph, c, d_ph = params
        psi = np.array([np.cos(a), np.exp(1j * b_ph) * np.sin(a)])
        m1 = np.array([np.cos(c), np.exp(1j * d_ph) * np.sin(c)])
        m2 = np.array([-np.sin(c) * np.exp(-1j * d_ph), np.cos(c)])
        out, dout = j_0 @ psi, dj @ psi
        amps = np.array([m1.conj() @ out, m2.conj() @ out])
        damps = np.array([m1.conj() @ dout, m2.conj() @ dout])
        p12 = np.abs(amps) ** 2
        dp12 = 2.0 * np.real(amps.conj() * damps)
        p = np.append(p12, max(1.0 - p12.sum(), 0.0))
        dp = np.append(dp12, -dp12.sum())
        return _fisher_from_probabilities(p, dp)

    # vectorized coarse grid: inputs (a, b) x analyzers (c, d)
    angles = np.linspace(0.0, np.pi, grid_points)
    phases = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
    aa, bb = np.meshgrid(angles, phases, indexing="ij")
    psi = np.stack([np.cos(aa).ravel(), np.exp(1j * bb.ravel()) * np.sin(aa).ravel()])
    m1 = np.stack([np.cos(aa).ravel(), np.exp(1j * bb.ravel()) * np.sin(aa).ravel()])
    m2 = np.stack([-np.sin(aa).ravel() * np.exp(-1j * bb.ravel()), np.cos(aa).ravel()])

    out, dout = j_0 @ psi, dj @ psi  # (2, Nin)
    amp1, damp1 = m1.conj().T @ out, m1.conj().T @ dout  # (Nout, Nin)
    amp2, damp2 = m2.conj().T @ out, m2.conj().T @ dout
    p1, p2 = np.abs(amp1) ** 2, np.abs(amp2) ** 2
    dp1 = 2.0 * np.real(amp1.conj() * damp1)
    dp2 = 2.0 * np.real(amp2.conj() * damp2)
    pl = np.clip(1.0 - p1 - p2, 0.0, None)
    dpl = -(dp1 + dp2)

    def term(p, dp):
        return np.where(p > 1e-12, dp**2 / np.where(p > 1e-12, p, 1.0), 0.0)

    fi_grid = term(p1, dp1) + term(p2, dp2) + term(pl, dpl)
    i_out, i_in = np.unravel_index(int(np.argmax(fi_grid)), fi_grid.shape)
    best = float(fi_grid[i_out, i_in])
    best_params = (
        angles[i_in // grid_points],
        phases[i_in % grid_points],
        angles[i_out // grid_points],
        phases[i_out % grid_points],
    )

    res = minimize(
        lambda p: -fi_of(p),
        np.asarray(best_params),
        method="Nelder-Mead",
        options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10},
    )
    return float(max(best, -res.fun))
