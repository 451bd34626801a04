"""Sub-threshold OPO output as a comb of Lorentzian pair modes.

Energy conservation pairs the mode at +k FSR with the one at -k FSR around
the degenerate frequency; a filter therefore rejects a pair if it blocks
either member.  Absolute pair rates are an arbitrary normalization, so all
outputs are ratios or weights relative to the envelope peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from atompairs.errors import ConfigError, NumericError

_LN2 = np.log(2.0)
# modes each side of the degenerate one that a comb may hold: fig3's holds
# 546, and 10,000 are already 220,011 filter evaluations in filtered_pair_rate
MAX_MODES = 10_000
# envelope weight, relative to its peak, of the first mode outside a comb
TAIL_CUT = 1e-4
# Gauss-Legendre nodes, and the half window in FWHM, of a mode's Lorentzian
LORENTZIAN_NODES = 11
LORENTZIAN_HALF_RANGE = 3.0


@dataclass(frozen=True)
class CavityConfig:
    """Cavity and phase-matching parameters of one CESPDC source."""

    fsr_hz: float
    linewidth_hz: float  # per-mode FWHM kappa
    degenerate_hz: float
    envelope_fwhm_hz: float = 150e9  # Gaussian phase-matching envelope

    def __post_init__(self):
        widths = (self.fsr_hz, self.linewidth_hz, self.envelope_fwhm_hz)
        if not all(np.isfinite(w) and w > 0 for w in widths):
            raise ConfigError("FSR, linewidth and envelope width must be finite and > 0")
        if self.linewidth_hz >= self.fsr_hz / 10:
            raise ConfigError("cavity linewidth must be well below the FSR")


def _envelope_weight(cfg: CavityConfig, k):
    """Envelope weight of the modes ``k`` FSR from the degenerate one."""
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the weight's limit
        x = np.asarray(k) * cfg.fsr_hz / cfg.envelope_fwhm_hz
        return np.exp(-4.0 * _LN2 * x**2)


@dataclass(frozen=True)
class PairSpectralDensity:
    """Comb of pair modes: index k, centre frequency, weight, linewidth."""

    k: np.ndarray
    frequency_hz: np.ndarray
    weight: np.ndarray
    linewidth_hz: float

    @property
    def degenerate_index(self) -> int:
        return int(np.where(self.k == 0)[0][0])


def mode_comb(cfg: CavityConfig) -> PairSpectralDensity:
    """Modes at nu0 + k FSR weighted by the phase-matching envelope, out to
    the first mode below ``TAIL_CUT`` of its peak.

    Raises ConfigError if the envelope stays above the cut beyond
    ``MAX_MODES`` modes.
    """
    below = _envelope_weight(cfg, np.arange(1, MAX_MODES + 1)) < TAIL_CUT
    if not below.any():
        raise ConfigError(
            f"the envelope stays above {TAIL_CUT:g} of its peak beyond {MAX_MODES} modes "
            f"from the degenerate one; a comb holds at most {MAX_MODES} modes each side"
        )
    n = int(below.argmax()) + 1  # first mode below the cut closes the comb
    k = np.arange(-n, n + 1)
    freq = cfg.degenerate_hz + k * cfg.fsr_hz
    weight = _envelope_weight(cfg, k)
    return PairSpectralDensity(k=k, frequency_hz=freq, weight=weight, linewidth_hz=cfg.linewidth_hz)


@dataclass(frozen=True)
class FilteredPairs:
    """Per-mode pass probabilities of a comb behind a filter."""

    comb: PairSpectralDensity
    mode_transmission: np.ndarray  # Lorentzian-averaged filter transmission
    pair_weight: np.ndarray  # w_k * Tbar(nu_k) * Tbar(nu_-k)

    @property
    def total_pairs(self) -> float:
        return float(self.pair_weight.sum())

    def degenerate_pair_fraction(self) -> float:
        if self.total_pairs == 0:
            raise NumericError("degenerate_pair_fraction: no pair passes the filter, so the fraction is 0/0")
        return float(self.pair_weight[self.comb.degenerate_index] / self.total_pairs)


def _lorentzian_average(transmission, centers_hz, fwhm_hz):
    """Filter transmission averaged over each mode's Lorentzian profile.

    ``LORENTZIAN_NODES``-point Gauss-Legendre quadrature on
    +-``LORENTZIAN_HALF_RANGE`` FWHM, weighted by the truncated Lorentzian
    density (renormalized on the window).
    """
    nodes, weights = np.polynomial.legendre.leggauss(LORENTZIAN_NODES)
    half = LORENTZIAN_HALF_RANGE * fwhm_hz
    offsets = nodes * half  # (nodes,)
    lor = 1.0 / (1.0 + (2.0 * offsets / fwhm_hz) ** 2)
    dens = weights * lor
    dens = dens / dens.sum()
    nus = np.asarray(centers_hz, dtype=float)[:, None] + offsets[None, :]
    t = transmission(nus.ravel()).reshape(nus.shape)
    return t @ dens


def filtered_pair_rate(comb: PairSpectralDensity, filter_spectrum) -> FilteredPairs:
    """Pair pass weights for every comb mode behind a filter.

    ``filter_spectrum`` is any callable nu -> T, such as a FilterSpectrum,
    which evaluates its filter at any frequency.
    """
    tbar = _lorentzian_average(filter_spectrum, comb.frequency_hz, comb.linewidth_hz)
    tbar = np.clip(tbar, 0.0, 1.0)
    # mode -k sits at index n - (k + n) mirrored around the centre
    pair = comb.weight * tbar * tbar[::-1]
    return FilteredPairs(comb=comb, mode_transmission=tbar, pair_weight=pair)


@dataclass(frozen=True)
class PurityReport:
    spectral_purity: float
    degenerate_fraction: float
    degenerate_share_in_band: float
    in_band_modes: int


def spectral_purity(
    passed: FilteredPairs,
    leak_fraction: float,
    blocking_transmission,
) -> PurityReport:
    """Purity P_S = 1 - c_HC / c_F of a filtered comb.

    ``leak_fraction`` is the broadband polarization-optics bypass: that
    fraction of every mode's pair flux reaches the detectors unfiltered.
    ``blocking_transmission`` is the hot-cell intensity transmission nu -> T;
    the hot cell sits in one of the two detection paths, so a surviving
    coincidence needs only the photon in that path to clear it (the partner
    path is open).
    """
    if not 0.0 <= leak_fraction < 1.0:
        raise ConfigError("leak fraction must lie in [0, 1)")
    comb = passed.comb
    pair_pass = passed.pair_weight + leak_fraction * comb.weight
    c_f = float(pair_pass.sum())
    if c_f <= 0.0:
        raise ConfigError("no pairs pass the filter; purity undefined")

    h = np.clip(np.asarray(blocking_transmission(comb.frequency_hz), dtype=float), 0.0, 1.0)
    h_mirror = h[::-1]
    c_hc = float((pair_pass * 0.5 * (h + h_mirror)).sum())
    p_s = 1.0 - c_hc / c_f

    in_band = h < 0.5
    in_band_pairs = pair_pass[in_band]
    if in_band_pairs.sum() <= 0:
        raise ConfigError("hot cell blocks no modes; cannot define the resonant band")
    share = float(pair_pass[comb.degenerate_index] / in_band_pairs.sum())
    return PurityReport(
        spectral_purity=p_s,
        degenerate_fraction=p_s * share,
        degenerate_share_in_band=share,
        in_band_modes=int(in_band.sum()),
    )
