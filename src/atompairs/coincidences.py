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
from numpy.random import default_rng

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
    with np.errstate(divide="ignore", over="ignore"):  # gamma * tau may underflow: inf teeth, refused below
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
    shrink = -np.expm1(-g) / g if g > 0 else 1.0  # (1 - exp(-g)) / g, 1 at g = 0
    out[~near] = np.exp(-g * (c[~near] - 1.0)) * shrink**2
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
    rng = default_rng(seed)
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
    # the median, as np.median takes it, from one partition: np.median would
    # import numpy.ma at its first call
    lower, upper = (y.size - 1) // 2, y.size // 2
    mid = np.partition(y, [lower, upper])
    floor0 = float(mid[lower] + mid[upper]) / 2.0
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
    lower = np.array([gamma_seed / 100.0, t[0], 0.0, 0.0])
    upper = np.array([gamma_max, t[-1], peak, 2.0 * peak])
    gamma, t0, floor, amp = _trf_fit(lambda p: model(p) - y, p0, lower, upper)
    return EnvelopeFit(
        gamma_sum=float(gamma),
        t0_s=float(t0),
        floor=float(floor),
        amplitude=float(amp),
        fwhm_s=2.0 * _LN2 / float(gamma),
    )


# The fit's solver: the trust-region-reflective method of Branch, Coleman & Li,
# SIAM J. Sci. Comput. 21, 1 (1999), ported from scipy 1.17's
# least_squares(method='trf') along the one path fit_envelope takes: finite
# bounds, unit x_scale, linear loss, the SVD ("exact") trust-region solver, a
# 2-point Jacobian, ftol = xtol = gtol = 1e-8 and at most 200 residual
# evaluations.  Each step keeps scipy's arithmetic in scipy's order, so with
# the same SVD the two return the same parameters bit for bit.

_EPS = np.finfo(float).eps
_TOL = 1e-8
_MAX_NFEV = 200


def _strictly_feasible(x, lb, ub, rstep):
    """Move components within ``rstep`` (relative) of a bound inside it;
    with ``rstep`` 0, those on or past a bound to the next float inside."""
    if rstep == 0:
        upper = x >= ub
        lower = (x <= lb) & ~upper
        x = np.where(lower, np.nextafter(lb, ub), np.where(upper, np.nextafter(ub, lb), x))
    else:
        lo_step, hi_step = rstep * np.maximum(1, np.abs(lb)), rstep * np.maximum(1, np.abs(ub))
        upper = ub - x <= np.minimum(x - lb, hi_step)
        lower = (x - lb <= np.minimum(ub - x, lo_step)) & ~upper
        x = np.where(lower, lb + lo_step, np.where(upper, ub - hi_step, x))
    return np.where((x < lb) | (x > ub), 0.5 * (lb + ub), x)


def _jacobian(fun, x, f, lb, ub):
    """Forward differences with step sqrt(eps) sign(x) max(1, |x|), reversed
    where it would leave the bounds, else cut to the farther bound."""
    h = _EPS**0.5 * ((x >= 0) * 2.0 - 1) * np.maximum(1.0, np.abs(x))
    lo_dist, hi_dist = x - lb, ub - x
    fits = np.abs(h) <= np.maximum(lo_dist, hi_dist)
    h = np.where(((x + h < lb) | (x + h > ub)) & fits, -h, h)
    h = np.where(fits, h, np.where(hi_dist >= lo_dist, hi_dist, -lo_dist))
    jt = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        jt[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return jt.T


def _scaling(x, g, lb, ub):
    """Coleman-Li scaling v (distance to the bound the gradient points to,
    else 1) and its derivative dv/dx."""
    v = np.where(g < 0, ub - x, np.where(g > 0, x - lb, 1.0))
    return v, np.where(g < 0, -1.0, np.where(g > 0, 1.0, 0.0))


def _to_bound(x, s, lb, ub):
    """Smallest t >= 0 with x + t s on a bound, and the components that reach it there."""
    steps = np.full_like(x, np.inf)
    moving = s != 0
    with np.errstate(over="ignore"):
        steps[moving] = np.maximum((lb - x)[moving] / s[moving], (ub - x)[moving] / s[moving])
    t = np.min(steps)
    return t, (steps == t) & moving


def _quadratic(J, g, s, diag):
    """0.5 s.(J^T J + diag) s + g.s"""
    Js = J.dot(s)
    return 0.5 * (np.dot(Js, Js) + np.dot(s * diag, s)) + np.dot(s, g)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients a, b (and c with ``s0``) of _quadratic(s0 + t s) = a t^2 + b t + c."""
    v = J.dot(s)
    a = 0.5 * (np.dot(v, v) + np.dot(s * diag, s))
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lo, hi, c=0):
    """Minimum (t, value) of a t^2 + b t + c over lo <= t <= hi."""
    t = [lo, hi]
    if a != 0 and lo < -0.5 * b / a < hi:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _trust_region_step(m, uf, s, V, delta, alpha):
    """More's iteration for the Levenberg-Marquardt parameter alpha of the
    step of length delta, on the SVD (U, s, V) of the scaled Jacobian."""
    suf = s * uf

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm

    full_rank = m >= s.size and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if np.linalg.norm(p) <= delta:
            return p, 0.0
    alpha_upper = np.linalg.norm(suf) / delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (delta / np.linalg.norm(p)), alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta):
    """The best of the trust-region step (cut back theta of the way to the
    bound it crosses), its reflection off that bound, and the anti-gradient
    step: (step, scaled step, predicted reduction)."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _to_bound(x, p, lb, ub)
    r_h = p_h.copy()
    r_h[hits] *= -1
    r = d * r_h
    p, p_h = p * p_stride, p_h * p_stride

    # the reflected ray leaves the trust region at the positive root of
    # |p_h + t r_h| = delta, taken without cancellation
    rr, pr, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - delta**2
    q = -(pr + np.copysign(np.sqrt(pr * pr - rr * c), pr))
    to_tr = max(q / rr, c / q)
    to_bound, _ = _to_bound(x + p, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    r_lo, r_hi = 0, -1
    if r_stride > 0:
        r_lo = (1 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else to_tr
    r_value = np.inf
    if r_lo <= r_hi:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_lo, r_hi, c)
        r_h = r_h * r_stride + p_h
        r = r_h * d

    p, p_h = p * theta, p_h * theta
    p_value = _quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    to_tr = delta / np.linalg.norm(ag_h)
    to_bound, _ = _to_bound(x, d * ag_h, lb, ub)
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, theta * to_bound if to_bound < to_tr else to_tr)

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return d * ag_h * ag_stride, ag_h * ag_stride, -ag_value


def _trf_fit(fun, x0, lb, ub):
    """Parameters minimizing |fun(x)|^2 within lb <= x <= ub, from x0."""
    x = _strictly_feasible(x0, lb, ub, 1e-10)
    f = fun(x)
    J = _jacobian(fun, x, f, lb, ub)
    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = np.linalg.norm(x / _scaling(x, g, lb, ub)[0] ** 0.5)
    if delta == 0:
        delta = 1.0
    alpha = 0.0  # the Levenberg-Marquardt parameter, carried from step to step
    J_aug, f_aug = np.empty((m + n, n)), np.zeros(m + n)
    while nfev < _MAX_NFEV:
        v, dv = _scaling(x, g, lb, ub)
        g_norm = np.linalg.norm(g * v, ord=np.inf)
        if g_norm < _TOL:
            break
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_aug[:m] = f
        J_aug[:m] = J * d
        J_aug[m:] = np.diag(diag_h**0.5)
        U, s, Vt = np.linalg.svd(J_aug, full_matrices=False)
        V, uf = Vt.T, U.T.dot(f_aug)
        theta = max(0.995, 1 - g_norm)

        reduction = -1
        while reduction <= 0 and nfev < _MAX_NFEV:
            p_h, alpha = _trust_region_step(m, uf, s, V, delta, alpha)
            step, step_h, predicted = _select_step(
                x, J_aug[:m], diag_h, g_h, d * p_h, p_h, d, delta, lb, ub, theta
            )
            x_new = _strictly_feasible(x + step, lb, ub, 0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = np.linalg.norm(step_h)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1 if predicted == reduction == 0 else 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                delta_new = 2.0 * delta
            converged = (reduction < _TOL * cost and ratio > 0.25) or (
                np.linalg.norm(step) < _TOL * (_TOL + np.linalg.norm(x))
            )
            if converged:
                return x_new if reduction > 0 else x
            alpha *= delta / delta_new
            delta = delta_new
        if reduction <= 0:
            break
        x, f, cost = x_new, f_new, cost_new
        if nfev < _MAX_NFEV:
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    return x
