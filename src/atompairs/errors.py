"""Exception hierarchy shared across the toolkit.

The CLI maps these onto distinct exit codes, so raising the right class
matters for scripted use.
"""


class AtomPairsError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AtomPairsError):
    """Invalid or missing configuration (bad field, unknown label, bad file)."""


class NumericError(AtomPairsError):
    """A numerical contract was violated (non-symmetric operator, unstable derivative)."""


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
