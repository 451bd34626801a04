"""Two-photon amplitude interference against a coherent reference.

A narrowband pair source and a CW reference populate the same two-photon
subspace; projecting both photons onto (e^{-i phi} H + V)/sqrt(2) gives a
coincidence rate |psi(tau) + (alpha^2/2) e^{2 i phi}|^2 whose phi-dependence
exposes the complex pair amplitude.  Three or more analyser phases (distinct
mod pi) make the per-tau inversion a linear least-squares problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from atompairs.errors import ConfigError, NumericError, check_points

_LN2 = np.log(2.0)
# the largest reference amplitude whose coincidence rate alpha^4 / 4 is a float
_ALPHA_MAX = np.finfo(float).max ** 0.25
# the largest mean numpy's Poisson sampler draws from
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class BiphotonWaveFunction:
    """Complex psi on a symmetric time-difference grid."""

    tau_s: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_s, dtype=float)
        if tau.size < 3 or np.abs(tau + tau[::-1]).max() > 1e-15 * np.abs(tau).max():
            raise ConfigError("tau grid must be uniform and symmetric about 0")

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.psi)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.psi)


def symmetric_tau_grid(half_span_s: float, step_s: float) -> np.ndarray:
    if not (np.isfinite(step_s) and step_s > 0 and np.isfinite(half_span_s)):
        raise ConfigError("tau step must be finite and > 0 and half span finite")
    n = np.rint(half_span_s / step_s)
    check_points(2 * n + 1, "tau grid")
    return step_s * np.arange(-int(n), int(n) + 1)


def ideal_opo_psi(bandwidth_fwhm_hz: float, phase_rad: float, tau_s) -> BiphotonWaveFunction:
    """Double-exponential pair amplitude of a sub-threshold OPO.

    |psi| = exp(-pi B |tau|), so the squared amplitude has full width at half
    maximum ln2 / (pi B); the phase is constant for an ideal cavity.
    """
    if not (np.isfinite(bandwidth_fwhm_hz) and bandwidth_fwhm_hz > 0):
        raise ConfigError("bandwidth must be finite and > 0")
    if not np.isfinite(phase_rad):
        raise ConfigError("pair phase must be finite")
    tau = np.asarray(tau_s, dtype=float)
    amp = np.exp(-np.pi * bandwidth_fwhm_hz * np.abs(tau))
    return BiphotonWaveFunction(tau_s=tau, psi=amp * np.exp(1j * phase_rad))


@dataclass(frozen=True)
class CoherentRef:
    """CW reference: amplitude alpha (flux-normalized) and analyser phase."""

    alpha: complex
    phase_rad: float = 0.0

    @property
    def pair_amplitude(self) -> complex:
        """Two-photon amplitude alpha^2 / 2 contributed by the coherent state."""
        return self.alpha**2 / 2.0


def coincidence_rate(psi: BiphotonWaveFunction, ref: CoherentRef) -> np.ndarray:
    """R_phi(tau) = |psi(tau) + (alpha^2/2) exp(2 i phi)|^2."""
    interferent = ref.pair_amplitude * np.exp(2j * ref.phase_rad)
    return np.abs(psi.psi + interferent) ** 2


@dataclass(frozen=True)
class InterferenceRecord:
    phase_rad: float
    tau_s: np.ndarray
    counts: np.ndarray
    exposure: float

    def __post_init__(self):
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")


def simulate_records(
    psi: BiphotonWaveFunction,
    alpha: float,
    phases_rad,
    exposure: float,
    noise: bool = True,
    seed: int = 0,
) -> list[InterferenceRecord]:
    """Coincidence histograms for each analyser phase.

    ``exposure`` converts rates to expected counts; with ``noise`` the counts
    are Poisson-sampled (seeded), otherwise exact expectations are returned.
    """
    if not (np.isfinite(exposure) and exposure >= 0):
        raise ConfigError("params.exposure: must be finite and >= 0")
    if not abs(alpha) < _ALPHA_MAX:
        raise ConfigError(f"params.alpha: must be finite and below {_ALPHA_MAX:.4g}, where alpha^4 overflows")
    phases = np.atleast_1d(np.asarray(phases_rad, dtype=float))
    if phases.size < 3:
        raise ConfigError("need at least 3 analyser phases for reconstructability")
    rng = np.random.default_rng(seed)
    records = []
    for phi in phases:
        rate = coincidence_rate(psi, CoherentRef(alpha=alpha, phase_rad=phi))
        expected = exposure * rate
        if noise and not expected.max() <= _POISSON_MAX:
            raise ConfigError(f"params.exposure: {expected.max():.3g} counts expected in a bin exceed the Poisson sampler")
        counts = rng.poisson(expected).astype(float) if noise else expected
        records.append(
            InterferenceRecord(
                phase_rad=float(phi), tau_s=psi.tau_s, counts=counts, exposure=exposure
            )
        )
    return records


@dataclass(frozen=True)
class Reconstruction:
    wavefunction: BiphotonWaveFunction
    phase_sigma_rad: np.ndarray
    amplitude_sq_from_mean: np.ndarray  # cross-check: phi-averaged R minus floor
    clipped_points: int


def reconstruct_wavefunction(records: list[InterferenceRecord], alpha: float) -> Reconstruction:
    """Per-tau inversion of the interference records.

    With c = alpha^2/2 the model is R = (|psi|^2 + c^2) + 2c Re(psi) cos(2phi)
    + 2c Im(psi) sin(2phi): linear in (u, x, y) = (|psi|^2 + c^2, Re, Im).
    Weighted least squares per tau; the phase uncertainty follows from the
    Poisson covariance of the fitted (x, y).
    """
    if not 0 < alpha < _ALPHA_MAX:
        raise ConfigError(f"params.alpha: the reference amplitude must be > 0 and below {_ALPHA_MAX:.4g}")
    if len(records) < 3:
        raise ConfigError("need at least 3 records")
    if not all(np.isfinite(r.exposure) and r.exposure > 0 for r in records):
        raise ConfigError("params.exposure: reconstruction needs a finite exposure > 0")
    phases = np.array([r.phase_rad for r in records])
    # conditioning: phases must span the 2phi circle with >= 3 distinct points
    distinct = np.unique(np.round(np.mod(phases, np.pi) / np.pi * 1e6))
    if distinct.size < 3:
        raise NumericError("analyser phases are degenerate modulo pi")

    tau = records[0].tau_s
    for r in records:
        if r.tau_s.shape != tau.shape or not np.allclose(r.tau_s, tau):
            raise ConfigError("records must share one tau grid")

    c = alpha**2 / 2.0
    a_mat = np.column_stack(
        [np.ones_like(phases), 2.0 * c * np.cos(2 * phases), 2.0 * c * np.sin(2 * phases)]
    )
    counts = np.stack([r.counts for r in records])  # (n_phi, n_tau)
    exposure = np.array([r.exposure for r in records])[:, None]
    rates = counts / exposure

    cond = np.linalg.cond(a_mat)
    if cond > 1e8:
        raise NumericError(f"phase design matrix ill-conditioned (cond={cond:.2g})")

    coef, *_ = np.linalg.lstsq(a_mat, rates, rcond=None)
    u, x, y = coef
    psi = x + 1j * y
    amp_sq = x**2 + y**2

    # error propagation: per-record rate variance from Poisson counts
    var_rates = np.maximum(counts, 1.0) / exposure**2
    pinv = np.linalg.pinv(a_mat)  # (3, n_phi)
    var_x = (pinv[1] ** 2)[:, None] * var_rates
    var_y = (pinv[2] ** 2)[:, None] * var_rates
    cov_xy = (pinv[1] * pinv[2])[:, None] * var_rates
    var_x = var_x.sum(axis=0)
    var_y = var_y.sum(axis=0)
    cov_xy = cov_xy.sum(axis=0)
    denom = np.maximum(amp_sq, 1e-300)
    sigma_phase = np.sqrt(
        np.abs(y**2 * var_x + x**2 * var_y - 2 * x * y * cov_xy) / denom**2
    )

    # independent amplitude estimate from the phi-average, clipped at zero
    mean_based = u - c**2
    clipped = int(np.sum(mean_based < 0))
    amp_sq_mean = np.maximum(mean_based, 0.0)

    return Reconstruction(
        wavefunction=BiphotonWaveFunction(tau_s=tau, psi=psi),
        phase_sigma_rad=sigma_phase,
        amplitude_sq_from_mean=amp_sq_mean,
        clipped_points=clipped,
    )
