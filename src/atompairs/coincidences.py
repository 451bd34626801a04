"""Arrival-time statistics of pair photons: envelopes, comb teeth, binning.

The pair correlation of a single filtered mode decays as a double exponential
exp(-|T| (gamma1+gamma2)); the unfiltered multimode output multiplies that by
a comb at the cavity round-trip time.  A counting card with bin width t_bin
and unknown channel delay T0 smears each tooth over two bins with triangular
weights, which is what produces the sampling beat seen in raw histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import exprel

from atompairs.errors import ConfigError, FitFailure, NumericError, check_points

_LN2 = np.log(2.0)
_SECOND_DIFFERENCE = np.array([1.0, -2.0, 1.0])


@dataclass(frozen=True)
class G2Envelope:
    """Double-exponential envelope parameters, decay rates in s^-1."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma1) and np.isfinite(self.gamma2) and self.gamma_sum > 0):
            raise ConfigError("gamma1 and gamma2 must be finite and gamma1 + gamma2 > 0")

    @property
    def gamma_sum(self) -> float:
        return self.gamma1 + self.gamma2

    @property
    def fwhm_s(self) -> float:
        return 2.0 * _LN2 / self.gamma_sum

    @classmethod
    def from_linewidth(cls, linewidth_hz: float):
        """Envelope of a cavity of FWHM ``linewidth_hz``; 80 % of its decay is output coupling."""
        gs = 2.0 * np.pi * linewidth_hz
        return cls(gamma1=0.8 * gs, gamma2=(1.0 - 0.8) * gs)


@dataclass(frozen=True)
class DetectionModel:
    """Counting electronics and background description."""

    t_bin_s: float
    t0_s: float = 0.0  # signal/idler channel delay
    rate1_hz: float = 0.0  # singles rate, detector 1
    rate2_hz: float = 0.0
    round_trip_s: float = 1.996e-9

    def __post_init__(self):
        for name in ("t_bin_s", "t0_s", "rate1_hz", "rate2_hz", "round_trip_s"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("t_bin_s", "round_trip_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("rate1_hz", "rate2_hz"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        # binned_histogram shifts the bins by round(t0 / t_bin), an exact int64
        if not abs(self.t0_s) < 2.0**53 * self.t_bin_s:
            raise ConfigError(f"t0_s is {self.t0_s / self.t_bin_s:.3g} bins, not under 2^53")

    @property
    def accidental_rate(self) -> float:
        """Flat coincidence floor t_bin * R1 * R2 (per bin, per second)."""
        return self.t_bin_s * self.rate1_hz * self.rate2_hz


def g2_single(delay_s, envelope: G2Envelope):
    """Normalized single-mode pair correlation exp(-|T| (g1+g2))."""
    return np.exp(-np.abs(np.asarray(delay_s, dtype=float)) * envelope.gamma_sum)


def g2_multi_weights(envelope: G2Envelope, det: DetectionModel):
    """Delta-comb teeth (delay, weight): weight = envelope at n * round-trip,
    keeping the teeth of weight >= 1e-6.

    Valid when the mode count is large (>= 50), as for every shipped cavity.
    """
    weight_cut = 1e-6
    tau = det.round_trip_s
    n_max = np.ceil(-np.log(weight_cut) / (envelope.gamma_sum * tau))
    check_points(2 * n_max + 1, "comb teeth")
    n = np.arange(-int(n_max), int(n_max) + 1)
    delays = n * tau
    weights = g2_single(delays, envelope)
    keep = weights >= weight_cut
    return delays[keep], weights[keep]


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Coincidence rate (or counts) versus bin separation index."""

    bin_index: np.ndarray
    values: np.ndarray
    t_bin_s: float
    mode: str

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ValueError("histogram entries must be nonnegative")

    @property
    def delays_s(self) -> np.ndarray:
        return self.bin_index * self.t_bin_s


def _tooth_bin_weights(position_bins, bins):
    """Triangular overlap of a comb tooth with each bin.

    ``position_bins`` is the tooth centre in units of t_bin relative to bin 0;
    the uniform average over the signal arrival time inside its own bin turns
    the tooth into a tent of full width 2 t_bin.  Weights over all bins sum
    to exactly 1 for every tooth.
    """
    pos = np.asarray(position_bins, dtype=float)[:, None]
    idx = np.asarray(bins, dtype=float)[None, :]
    return np.clip(1.0 - np.abs(pos - idx), 0.0, 1.0)


def _ramp(x):
    """(exp(-x) - 1 + x) / x^2 at x >= 0, by its Taylor series below 0.01."""
    big = np.maximum(x, 0.01)
    series = 0.5 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x / 720)))
    return np.where(x < 0.01, series, (np.expm1(-big) + big) / big**2)


def _smooth_bin_average(envelope, offset_bins, bins, t_bin):
    """Tent-weighted bin values of the smooth envelope, in closed form.

    For bin i the detector averages exp(-g |u|), g = gamma t_bin, against a
    unit-area tent of full width two bins centred at c = i - offset (all in
    bin units).  That is the second difference F(|c|+1) - 2 F(|c|) + F(|c|-1)
    of F(u) = (exp(-g |u|) - 1 + g |u|) / g^2, which for |c| >= 1 is
    exp(-g (|c| - 1)) ((1 - exp(-g)) / g)^2.
    """
    g = envelope.gamma_sum * t_bin
    c = np.abs(np.asarray(bins, dtype=float) - float(offset_bins))
    near = c < 1.0
    out = np.empty_like(c)
    out[~near] = np.exp(-g * (c[~near] - 1.0)) * exprel(-g) ** 2
    u = np.stack([1.0 + c[near], c[near], 1.0 - c[near]])
    if g < 1.0:  # F(u) = u^2 _ramp(g u), each term accurate
        out[near] = _SECOND_DIFFERENCE @ (u**2 * _ramp(g * u))
    else:  # the linear parts of F summed exactly: 2 (1 - |c|) / g
        out[near] = (2.0 * u[2] + _SECOND_DIFFERENCE @ np.exp(-g * u) / g) / g
    return out


def binned_histogram(
    envelope: G2Envelope,
    det: DetectionModel,
    mode: str,
    bins,
) -> CoincidenceHistogram:
    """Expected coincidence rate per bin separation, pair rate normalized to 1.

    ``mode`` selects the delta-comb multimode model or the smooth single-mode
    envelope; both include the accidental floor t_bin R1 R2.
    """
    if mode not in ("single", "multi"):
        raise ConfigError("mode must be 'single' or 'multi'")
    bins = np.asarray(bins, dtype=int)

    # T0 = k t_bin + delta: the integer part shifts bin indices exactly,
    # the remainder sets where the sampling beat has maximum visibility.
    k0 = int(np.floor(det.t0_s / det.t_bin_s + 0.5))
    delta = det.t0_s - k0 * det.t_bin_s

    if mode == "multi":
        delays, weights = g2_multi_weights(envelope, det)
        check_points(delays.size * bins.size, "tooth-bin tent table (teeth x bins)")
        pos = (delta + delays) / det.t_bin_s  # tooth centres in bin units, rel. bin k0
        tents = _tooth_bin_weights(pos, bins - k0)
        signal = weights @ tents
    else:
        signal = _smooth_bin_average(envelope, delta / det.t_bin_s, bins - k0, det.t_bin_s)

    return CoincidenceHistogram(
        bin_index=bins, values=signal + det.accidental_rate, t_bin_s=det.t_bin_s, mode=mode
    )


def simulate_histogram(
    envelope: G2Envelope,
    det: DetectionModel,
    mode: str,
    bins,
    n_pairs: int,
    duration_s: float = 1.0,
    seed: int = 0,
) -> CoincidenceHistogram:
    """Monte-Carlo histogram: pair delays drawn from the comb/envelope model,
    accidentals as a Poisson floor.  Deterministic for a fixed seed."""
    if mode not in ("single", "multi"):
        raise ConfigError("mode must be 'single' or 'multi'")
    rng = np.random.default_rng(seed)
    bins = np.asarray(bins, dtype=int)

    # delays relative to T0; Laplace is the double exponential
    scale = 1.0 / envelope.gamma_sum
    if mode == "single":
        delays = rng.laplace(0.0, scale, size=n_pairs)
    else:
        d, w = g2_multi_weights(envelope, det)
        teeth = rng.choice(d.size, size=n_pairs, p=w / w.sum())
        delays = d[teeth]
    # uniform signal arrival phase inside its own bin
    jitter = rng.uniform(0.0, det.t_bin_s, size=n_pairs)
    idx = np.floor((delays + det.t0_s + jitter) / det.t_bin_s).astype(int)

    lo, hi = bins.min(), bins.max()
    counts = np.bincount(
        np.clip(idx, lo, hi) - lo, weights=(idx >= lo) & (idx <= hi), minlength=hi - lo + 1
    )
    acc = rng.poisson(det.accidental_rate * duration_s, size=bins.size)
    return CoincidenceHistogram(
        bin_index=bins, values=counts + acc, t_bin_s=det.t_bin_s, mode=mode
    )


@dataclass(frozen=True)
class EnvelopeFit:
    gamma_sum: float
    t0_s: float
    floor: float
    amplitude: float
    fwhm_s: float


def fit_envelope(hist: CoincidenceHistogram) -> EnvelopeFit:
    """Least-squares fit of floor + A exp(-|t - T0| gamma) to a histogram.

    Initialization is deterministic: the peak bin seeds T0, the half-max
    crossing seeds gamma.  Parameters are bounded and the solver iteration
    count capped, so fits behave identically run to run.
    """
    t = hist.delays_s.astype(float)
    y = hist.values.astype(float)
    floor0 = float(np.median(y))
    peak = float(y.max())
    # noise scale from the sub-median bins: for Poisson counts this is the
    # usual sqrt(rate), for noiseless rate tables it collapses to ~0
    floor_bins = y[y <= floor0]
    sigma = float(np.std(floor_bins)) if floor_bins.size > 1 else 0.0
    if peak <= floor0 + 3.0 * sigma:
        raise FitFailure("no peak at least 3 sigma above the floor")

    i_peak = int(np.argmax(y))
    t0_seed = t[i_peak]
    half = floor0 + (peak - floor0) / 2.0
    above = np.where(y > half)[0]
    half_width = max((t[above[-1]] - t[above[0]]) / 2.0, hist.t_bin_s)
    with np.errstate(over="ignore"):  # refused just below
        gamma_seed = 2.0 * _LN2 / (2.0 * half_width)
        gamma_max = gamma_seed * 100.0
    if not np.isfinite(gamma_max):
        raise NumericError(f"the fit's decay-rate bound overflows at {hist.t_bin_s:.3g} s bins")

    span = t[-1] - t[0]
    if span < 3.0 * (2.0 * _LN2 / gamma_seed):
        raise FitFailure("histogram span below three fitted widths")

    def model(p):
        gamma, t0, floor, amp = p
        return floor + amp * np.exp(-np.abs(t - t0) * gamma)

    p0 = np.array([gamma_seed, t0_seed, floor0, peak - floor0])
    lower = [gamma_seed / 100.0, t[0], 0.0, 0.0]
    upper = [gamma_max, t[-1], peak, 2.0 * peak]
    res = least_squares(
        lambda p: model(p) - y, p0, bounds=(lower, upper), max_nfev=200
    )
    gamma, t0, floor, amp = res.x
    return EnvelopeFit(
        gamma_sum=float(gamma),
        t0_s=float(t0),
        floor=float(floor),
        amplitude=float(amp),
        fwhm_s=2.0 * _LN2 / float(gamma),
    )
