"""Two-photon polarization states through waveplates and a Faraday cell.

States live in the ordered product basis {HH, HV, VH, VV}.  Loss is carried
as a trace deficit.  Behind a contractive Jones J and an analyzer HWP at angle
a, each photon meets three effects: E_H and E_V, the outer products of the
rows of hwp(a) J, and E_lost = I - J^dag J.  Pair outcome (a, b) has
probability Tr[(E_a x E_b) rho]; these are the complete classes (two detected,
one, none) of the Fisher-information bookkeeping.  The Jones builders and the
outcome kernel take stacks of angles or channels; one is the 0-d case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from atompairs.errors import ConfigError, NumericError

BASIS = ("HH", "HV", "VH", "VV")

# columns are the sigma+ / sigma- circular states in the H/V basis
_V_CIRC = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
# outcomes at or below this probability carry no Fisher information
_PROB_FLOOR = 1e-12


def hwp_jones(angle_rad) -> np.ndarray:
    """Half-wave plate at ``angle_rad``; an array of angles gives a stack."""
    c, s = np.cos(2 * np.asarray(angle_rad)), np.sin(2 * np.asarray(angle_rad))
    return np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2).astype(complex)


def qwp_jones(angle_rad: float) -> np.ndarray:
    r = np.array(
        [[np.cos(angle_rad), -np.sin(angle_rad)], [np.sin(angle_rad), np.cos(angle_rad)]]
    )
    return r @ np.diag([1.0, 1.0j]) @ r.T


def rotation_jones(theta_rad) -> np.ndarray:
    """Lossless polarization rotation (ideal Faraday channel)."""
    return circular_jones(np.exp(1j * theta_rad), np.exp(-1j * theta_rad))


def circular_jones(t_plus, t_minus) -> np.ndarray:
    """H/V Jones of a medium diagonal in the circular basis; arrays of
    transfers give a stack."""
    diag = np.stack(np.broadcast_arrays(t_plus, t_minus), -1)[..., None, :]
    return (_V_CIRC * diag) @ _V_CIRC.conj().T


@dataclass(frozen=True)
class TwoPhotonPolState:
    """4x4 density matrix over {HH, HV, VH, VV}; trace deficit = loss."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ConfigError("density matrix must be 4x4")
        if not np.all(np.isfinite(rho)):
            raise ConfigError("density matrix must be finite")
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
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise ConfigError("state vector must be finite and nonzero")
    v = v / norm
    return TwoPhotonPolState(np.outer(v, v.conj()))


def make_noon_from_pair(imbalance: float = 0.0) -> TwoPhotonPolState:
    """Symmetrized |HV> pair, which is the N=2 NooN state in the circular basis.

    ``imbalance`` mixes in a small |VV> amplitude, mimicking the residual H/V
    asymmetry that makes singles rates field-dependent in practice.
    """
    v = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    v[3] = imbalance
    return pure_state(v)


def noon_state(phase_rad: float = 0.0) -> TwoPhotonPolState:
    """(|HH> + e^{2 i phi} |VV>)/sqrt(2)."""
    if not np.isfinite(phase_rad):
        raise ConfigError("state phase must be finite")
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


def _check_passive(jones: np.ndarray, what: str):
    """Raise ConfigError, naming the first bad index of a stack (..., 2, 2),
    unless every Jones is finite with singular values <= 1 (no gain)."""
    finite = np.isfinite(jones).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], jones, 0.0), compute_uv=False)
    bad = ~finite | (sv[..., 0] > 1.0 + 1e-9)
    if bad.any():
        raise ConfigError(
            f"{what}{_first_index(bad)} is not finite or has gain (a singular value above 1)"
        )


def _first_index(bad: np.ndarray) -> str:
    """" at stack index i, j" of the first true entry of ``bad``; "" when 0-d."""
    at = ", ".join(map(str, np.unravel_index(np.argmax(bad), bad.shape)))
    return f" at stack index {at}" if at else ""


@dataclass(frozen=True)
class OpticalElement:
    """Single-photon element applied to both photons of the pair."""

    kind: str  # HWP | QWP | cell | rotation
    jones: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.jones, dtype=complex)
        if j.shape != (2, 2):
            raise ConfigError("Jones matrix must be 2x2")
        _check_passive(j, "element")
        if self.kind in ("HWP", "QWP", "rotation"):
            if np.abs(j @ j.conj().T - np.eye(2)).max() > 1e-12:
                raise ConfigError(f"{self.kind} Jones must be unitary")


def apply_element(state: TwoPhotonPolState, element: OpticalElement) -> TwoPhotonPolState:
    j2 = np.kron(element.jones, element.jones)
    return TwoPhotonPolState(j2 @ state.rho @ j2.conj().T)


@dataclass(frozen=True)
class OutcomeProbabilities:
    """Complete detection classes of one pair through channel + analyzer;
    each is a float, or an array with one entry per stacked channel/angle."""

    hh: np.ndarray
    hv: np.ndarray
    vv: np.ndarray
    one_h: np.ndarray
    one_v: np.ndarray
    none: np.ndarray

    def as_array(self) -> np.ndarray:
        """The six classes along the first axis."""
        return np.array([self.hh, self.hv, self.vv, self.one_h, self.one_v, self.none])

    @property
    def singles_h(self):
        """Expected H detections per pair."""
        return 2 * self.hh + self.hv + self.one_h

    @property
    def singles_v(self):
        return 2 * self.vv + self.hv + self.one_v

    @property
    def expected_lost(self):
        return self.one_h + self.one_v + 2 * self.none


def measurement_rates(
    state: TwoPhotonPolState,
    channel: np.ndarray | None = None,
    analyzer_hwp_rad=0.0,
) -> OutcomeProbabilities:
    """Project the pair onto the analyzer basis behind an optional channel.

    The analyzer is an HWP then a polarizing splitter; coincidences HH/HV/VV
    count unordered outcomes and the one-photon classes absorb the channel
    loss.  ``channel`` may be a stack (..., 2, 2) and ``analyzer_hwp_rad`` an
    array; they broadcast, and each class has their broadcast shape.  A
    channel with gain (a singular value above 1) or a non-finite entry, and a
    non-finite analyzer angle, raise ConfigError naming the first such stack
    index.
    """
    j = np.eye(2, dtype=complex) if channel is None else np.asarray(channel, complex)
    if j.shape[-2:] != (2, 2):
        raise ConfigError("channel must be a 2x2 Jones matrix or a stack of them")
    _check_passive(j, "channel")
    bad_angle = ~np.isfinite(analyzer_hwp_rad)
    if bad_angle.any():
        raise ConfigError(f"analyzer angle{_first_index(bad_angle)} is not finite")
    m = hwp_jones(analyzer_hwp_rad) @ j
    # per-photon effects E_H, E_V, E_lost along axis -3
    detected = m.conj()[..., :, :, None] * m[..., :, None, :]
    lost = np.eye(2) - np.swapaxes(j.conj(), -1, -2) @ j
    lost = np.broadcast_to(lost[..., None, :, :], detected.shape[:-3] + (1, 2, 2))
    effects = np.concatenate((detected, lost), axis=-3)
    # p[a, b] = Tr[(E_a x E_b) rho], with rho[(j, l), (i, k)] = rho4[j, l, i, k]
    rho4 = np.asarray(state.rho, dtype=complex).reshape(2, 2, 2, 2)
    p = np.einsum("...aij,...bkl,jlik->ab...", effects, effects, rho4).real
    return OutcomeProbabilities(
        hh=p[0, 0],
        hv=p[0, 1] + p[1, 0],
        vv=p[1, 1],
        one_h=p[0, 2] + p[2, 0],
        one_v=p[1, 2] + p[2, 1],
        none=p[2, 2],
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
class SensingScan:
    """Pair outcome classes versus applied field, one array entry per field."""

    b_t: np.ndarray
    eta: np.ndarray  # transmitted fraction through the cell
    rotation_rad: np.ndarray
    probabilities: OutcomeProbabilities


def sensing_scan(state: TwoPhotonPolState, b_list_t, transfer) -> SensingScan:
    """Pair outcome probabilities versus applied field at one probe frequency.

    ``transfer`` is the cell's (t+, t-, theta) at the probe frequency, one
    entry per field of ``b_list_t``, as ``vapor.transfer_vs_field`` returns
    it; the outcome classes come from one stacked ``measurement_rates`` call.
    """
    b = np.asarray(b_list_t, dtype=float)
    t_plus, t_minus, theta = transfer
    if any(np.shape(t) != b.shape for t in transfer):
        raise ConfigError("sensing_scan needs one (t+, t-, theta) entry per field")
    return SensingScan(
        b_t=b,
        eta=(np.abs(t_plus) ** 2 + np.abs(t_minus) ** 2) / 2.0,
        rotation_rad=np.asarray(theta, dtype=float),
        probabilities=measurement_rates(state, channel=circular_jones(t_plus, t_minus)),
    )


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
    if v.max() + v.min() == 0:
        raise NumericError("visibility: every rate is 0, so the fringe visibility is undefined")
    return float((v.max() - v.min()) / (v.max() + v.min()))


def _fisher_from_probabilities(p, dp, floor: float = _PROB_FLOOR):
    """Sum of dp^2 / p over the outcomes (the first axis), leaving out outcomes
    with p <= floor."""
    terms = (np.where(q > floor, dq**2 / np.where(q > floor, q, 1.0), 0.0) for q, dq in zip(p, dp))
    return sum(terms)


@dataclass(frozen=True)
class FisherReport:
    b_t: float
    fi_pair: float
    fi_per_photon: float
    fi_per_scattered: float


def fisher_scan_index(b_t, at_b_t: float) -> int:
    """Index of the scan field nearest ``at_b_t``; ConfigError unless the scan
    ``b_t`` has at least 5 uniform points, spacing <= 0.5 mT and that field
    +- 2 steps inside it, as ``fisher_information`` needs."""
    b = np.asarray(b_t, dtype=float)
    db = np.diff(b)
    if b.size < 5 or np.abs(db - db[0]).max() > 1e-12:
        raise ConfigError("the Fisher information needs a scan uniform in B with at least 5 points")
    if db[0] > 0.5e-3 + 1e-12:
        raise ConfigError(f"the Fisher information needs scan steps <= 0.5 mT, got {db[0] * 1e3:g} mT")
    i = int(np.argmin(np.abs(b - at_b_t)))
    if i < 2 or i > b.size - 3:
        raise ConfigError(f"{at_b_t * 1e3:g} mT needs scan points 2 steps either side; the scan spans {b[0] * 1e3:g} to {b[-1] * 1e3:g} mT")
    return i


def fisher_information(scan: SensingScan, at_b_t: float) -> FisherReport:
    """Multinomial Fisher information per pair at one scan point.

    Uses centred finite differences on the scan's own B grid and a
    step-halving (Richardson) consistency check, which fails above a 5 %
    disagreement; the scan must pass ``fisher_scan_index``.
    """
    b = scan.b_t
    i = fisher_scan_index(b, at_b_t)
    h = float(b[1] - b[0])

    p_tab = scan.probabilities.as_array()
    p0 = p_tab[:, i]
    d_h = (p_tab[:, i + 1] - p_tab[:, i - 1]) / (2 * h)
    d_2h = (p_tab[:, i + 2] - p_tab[:, i - 2]) / (4 * h)
    fi_h = _fisher_from_probabilities(p0, d_h)
    d_rich = (4.0 * d_h - d_2h) / 3.0
    fi_rich = _fisher_from_probabilities(p0, d_rich)
    if fi_rich > 0 and abs(fi_h - fi_rich) > 0.05 * fi_rich:
        raise NumericError(
            f"finite-difference Fisher information unstable: h term {fi_h:.4g} "
            f"vs Richardson {fi_rich:.4g}"
        )

    lost = scan.probabilities.expected_lost[i]
    return FisherReport(
        b_t=float(b[i]),
        fi_pair=fi_rich,
        fi_per_photon=fi_rich / 2.0,
        fi_per_scattered=fi_rich / lost if lost > 0 else float("inf"),
    )


def _at_three_fields(t_plus, t_minus) -> np.ndarray:
    """(t+, t-) at (b*, b* + h, b* - h) as a 2 x 3 array; ConfigError unless
    each has those three entries."""
    if np.shape(t_plus) != (3,) or np.shape(t_minus) != (3,):
        raise ConfigError("need the transfers at b*, b* + h and b* - h: three entries each")
    return np.array([t_plus, t_minus], dtype=complex)


def fisher_information_frozen_loss(state: TwoPhotonPolState, transfer, h_t: float) -> tuple[float, float]:
    """(FI_pair with live loss, FI_pair with |t| frozen at b*) per pair.

    ``transfer`` is the cell's (t+, t-, theta) at (b*, b* + h, b* - h), as
    ``vapor.transfer_vs_field`` returns it; theta is not read.  Freezing
    replaces |t+-(B)| by its value at the operating point while the circular
    phases still follow B, isolating the information carried by the field
    dependence of the absorption itself.  The live and frozen channels go
    through one stacked ``measurement_rates`` call.
    """
    t = _at_three_fields(*transfer[:2])
    frozen = np.abs(t[:, :1]) * np.exp(1j * np.angle(t))
    t_plus, t_minus = np.concatenate((t, frozen), axis=1)
    # classes x (live, frozen) x (b, b + h, b - h)
    p = measurement_rates(state, channel=circular_jones(t_plus, t_minus)).as_array()
    p = p.reshape(6, 2, 3)
    fi = _fisher_from_probabilities(p[..., 0], (p[..., 1] - p[..., 2]) / (2 * h_t))
    return float(fi[0]), float(fi[1])


def sql_fisher_information(t_plus, t_minus, h_t: float) -> float:
    """Best single-photon Fisher information through a cell whose circular
    transfers at (b*, b* + h, b* - h) are ``t_plus`` and ``t_minus``.

    For a probe of sigma+ weight x, the best analyzer (lost class counted)
    reaches the quantum Fisher information of {detected J psi, lost}
    (Braunstein & Caves, PRL 72, 3439 (1994)),
    F(x) = 4 [s - (Im q)^2 / n + (Re q)^2 / (1 - n)], where n = psi^dag J^dag J psi,
    q = psi^dag J^dag J' psi and s = psi^dag J'^dag J' psi are affine in x.
    The optimum is at x = 0, x = 1 or a root of the quartic numerator of F'.
    A class whose probability (n or 1 - n) is at or below ``_PROB_FLOOR``
    adds no term, which drops the lost class of a lossless channel.
    """
    t, t_up, t_down = _at_three_fields(t_plus, t_minus).T
    # derivative of the amplitudes themselves; they are smooth in B, so this
    # avoids the dark-fringe artifact of differencing |amplitude|^2 directly
    dt = (t_up - t_down) / (2 * h_t)

    def affine(per_circ):  # value at sigma- (x = 0) and slope towards sigma+
        return np.polynomial.Polynomial([per_circ[1], per_circ[0] - per_circ[1]])

    n, s = affine(np.abs(t) ** 2), affine(np.abs(dt) ** 2)
    re_q, im_q = affine(np.real(t.conj() * dt)), affine(np.imag(t.conj() * dt))
    # F/4 = num/den as polynomials in x, with only the classes above the floor
    num, den = s * n - im_q**2, n
    if max(1.0 - n(0.0), 1.0 - n(1.0)) > _PROB_FLOOR:
        num, den = num * (1.0 - n) + re_q**2 * n, den * (1.0 - n)
    # real parts of complex roots are harmless extra candidates, and near-double
    # real roots come back with a small imaginary part
    roots = (num.deriv() * den - num * den.deriv()).roots().real
    x = np.concatenate(([0.0, 1.0], np.clip(roots, 0.0, 1.0)))
    fi = (
        4.0 * s(x)
        - _fisher_from_probabilities((n(x),), (2.0 * im_q(x),))
        + _fisher_from_probabilities((1.0 - n(x),), (2.0 * re_q(x),))
    )
    return float(fi.max())
