"""Exception hierarchy shared across the toolkit, and the one cap on the
points of a grid, scan or table.

The CLI maps these onto distinct exit codes, so raising the right class
matters for scripted use.
"""

# The most points a grid, scan or table may hold, checked before it is
# allocated.  README's 400,001-point ``fadof`` run is the largest shipped;
# 2^20 superresolution angles peak near 0.65 GB.
MAX_POINTS = 1 << 20


class AtomPairsError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AtomPairsError):
    """Invalid or missing configuration (bad field, unknown label, bad file)."""


class NumericError(AtomPairsError):
    """A numerical contract was violated (unstable derivative, non-finite result)."""


class CoverageError(AtomPairsError):
    """Requested evaluation point lies outside the computed grid or window."""


class ResolutionError(CoverageError):
    """Uniform grid coarser than ``vapor.check_spacing`` allows for the cell;
    ``required_hz`` is the largest spacing it allows."""

    def __init__(self, spacing_hz, required_hz):
        self.spacing_hz = float(spacing_hz)
        self.required_hz = float(required_hz)
        super().__init__(
            f"grid spacing {spacing_hz:.3g} Hz too coarse; "
            f"need <= {required_hz:.3g} Hz"
        )


class FitFailure(AtomPairsError):
    """Histogram fit could not identify a peak above the floor."""


def check_points(points, what: str):
    """ConfigError naming ``what`` if ``points`` (a count, possibly a float
    or inf) exceeds MAX_POINTS."""
    if not points <= MAX_POINTS:
        raise ConfigError(f"{what} would hold {points:.4g} points; at most {MAX_POINTS} are allowed")
