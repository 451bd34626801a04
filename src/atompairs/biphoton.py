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
from numpy.random import default_rng

from atompairs.errors import ConfigError, NumericError, check_points

# the largest reference amplitude whose coincidence rate alpha^4 / 4 is a float
ALPHA_MAX = float(np.finfo(float).max ** 0.25)
# the largest mean numpy's Poisson sampler draws from
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class BiphotonWaveFunction:
    """Complex psi on a symmetric time-difference grid."""

    tau_s: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_s, dtype=float)
        if tau.size < 3:
            raise ConfigError(f"tau grid needs at least 3 points (got {tau.size})")
        if np.abs(tau + tau[::-1]).max() > 1e-15 * np.abs(tau).max():
            raise ConfigError("tau grid must be symmetric about 0")

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


def coincidence_rate(psi: BiphotonWaveFunction, alpha: float, phase_rad) -> np.ndarray:
    """R_phi(tau) = |psi(tau) + (alpha^2/2) exp(2 i phi)|^2; a column of
    phases gives one row per phase."""
    return np.abs(psi.psi + alpha**2 / 2.0 * np.exp(2j * phase_rad)) ** 2


@dataclass(frozen=True)
class InterferenceRecords:
    """Coincidence counts of one experiment: one row per analyser phase and
    one column per tau point, all under one exposure."""

    phases_rad: np.ndarray
    tau_s: np.ndarray
    counts: np.ndarray
    exposure: float

    def __post_init__(self):
        shape = (np.size(self.phases_rad), np.size(self.tau_s))
        if np.shape(self.counts) != shape:
            raise ConfigError(f"records: counts are shaped {np.shape(self.counts)}, not (phases, tau) = {shape}")
        if np.any(self.counts < 0):
            raise ConfigError("records: counts must be nonnegative")


def simulate_records(
    psi: BiphotonWaveFunction,
    alpha: float,
    phases_rad,
    exposure: float,
    noise: bool = True,
    seed: int = 0,
) -> InterferenceRecords:
    """Coincidence histograms for each analyser phase.

    ``exposure`` converts rates to expected counts; with ``noise`` the counts
    are Poisson-sampled (seeded), otherwise exact expectations are returned.
    """
    if not (np.isfinite(exposure) and exposure >= 0):
        raise ConfigError("params.exposure: must be finite and >= 0")
    if not abs(alpha) < ALPHA_MAX:
        raise ConfigError(f"params.alpha: must be finite and below {ALPHA_MAX:.4g}, where alpha^4 overflows")
    phases = np.atleast_1d(np.asarray(phases_rad, dtype=float))
    if phases.size < 3:
        raise ConfigError("need at least 3 analyser phases for reconstructability")
    with np.errstate(over="ignore"):
        expected = exposure * coincidence_rate(psi, alpha, phases[:, None])
    if not np.isfinite(expected).all():
        raise ConfigError(f"params.alpha and params.exposure: the expected counts overflow at alpha {alpha!r}, exposure {exposure!r}")
    if noise and not expected.max() <= _POISSON_MAX:
        raise ConfigError(f"params.exposure: {expected.max():.3g} counts expected in a bin exceed the Poisson sampler")
    counts = default_rng(seed).poisson(expected).astype(float) if noise else expected
    return InterferenceRecords(phases_rad=phases, tau_s=psi.tau_s, counts=counts, exposure=exposure)


@dataclass(frozen=True)
class Reconstruction:
    wavefunction: BiphotonWaveFunction
    phase_sigma_rad: np.ndarray
    amplitude_sq_from_mean: np.ndarray  # cross-check: phi-averaged R minus floor
    clipped_points: int


def reconstruct_wavefunction(records: InterferenceRecords, alpha: float) -> Reconstruction:
    """Per-tau inversion of the interference records.

    With c = alpha^2/2 the model is R = (|psi|^2 + c^2) + 2c Re(psi) cos(2phi)
    + 2c Im(psi) sin(2phi): linear in (u, x, y) = (|psi|^2 + c^2, Re, Im).
    Unweighted least squares per tau through the pseudo-inverse of the phase
    design, from its one SVD; the phase uncertainty follows from the Poisson
    covariance of the fitted (x, y).
    """
    if not 0 < alpha < ALPHA_MAX:
        raise ConfigError(f"params.alpha: the reference amplitude must be > 0 and below {ALPHA_MAX:.4g}")
    phases = records.phases_rad
    if phases.size < 3:
        raise ConfigError("need at least 3 analyser phases")
    exposure = records.exposure
    if not (np.isfinite(exposure) and exposure > 0):
        raise ConfigError("params.exposure: reconstruction needs a finite exposure > 0")
    # conditioning: phases must span the 2phi circle with >= 3 distinct points,
    # counted as steps between the sorted keys (np.unique would import numpy.ma)
    keys = np.sort(np.round(np.mod(phases, np.pi) / np.pi * 1e6))
    if np.count_nonzero(np.diff(keys)) < 2:
        raise NumericError("analyser phases are degenerate modulo pi")

    c = alpha**2 / 2.0
    a_mat = np.column_stack(
        [np.ones_like(phases), 2.0 * c * np.cos(2 * phases), 2.0 * c * np.sin(2 * phases)]
    )
    left, s, right = np.linalg.svd(a_mat, full_matrices=False)
    if not s[0] <= 1e8 * s[-1]:  # cond = s[0] / s[-1] above 1e8, or s[-1] = 0
        raise NumericError(f"phase design matrix ill-conditioned (cond={s[0] / s[-1] if s[-1] else np.inf:.2g})")
    pinv = right.T @ ((1.0 / s)[:, None] * left.T)  # (3, n_phi)

    u, x, y = pinv @ (records.counts / exposure)
    amp_sq = x**2 + y**2
    # |psi|^4 divides the phase variance; where it underflows to 0 no
    # interference was recorded and the phase has no error bar
    if blind := np.count_nonzero(amp_sq**2 == 0):
        raise NumericError(
            f"params.exposure: {blind} of {amp_sq.size} tau points hold no interference "
            f"(|psi|^2 = 0 to rounding), so their phase is undefined; raise the exposure"
        )
    # error propagation: per-record rate variance from Poisson counts, at
    # least one count's
    with np.errstate(over="ignore", divide="ignore"):
        var_rates = np.maximum(records.counts, 1.0) / exposure**2
    if np.isinf(var_rates).any():
        raise NumericError(
            f"params.exposure: at exposure {exposure:.3g} the rate variance, counts / exposure^2, "
            f"overflows; raise the exposure"
        )
    var_x, var_y, cov_xy = ((pinv[[1, 2, 1]] * pinv[[1, 2, 2]])[:, :, None] * var_rates).sum(axis=1)
    sigma_phase = np.sqrt(np.abs(y**2 * var_x + x**2 * var_y - 2 * x * y * cov_xy) / amp_sq**2)

    # independent amplitude estimate from the phi-average, clipped at zero
    mean_based = u - c**2
    clipped = int(np.sum(mean_based < 0))
    amp_sq_mean = np.maximum(mean_based, 0.0)

    return Reconstruction(
        wavefunction=BiphotonWaveFunction(tau_s=records.tau_s, psi=x + 1j * y),
        phase_sigma_rad=sigma_phase,
        amplitude_sq_from_mean=amp_sq_mean,
        clipped_points=clipped,
    )
