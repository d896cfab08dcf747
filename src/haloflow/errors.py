"""Exception types shared across the package.

Every error raised on purpose by this package derives from HaloflowError so
callers can catch one base class at the CLI boundary and map it to an exit
code.
"""


class HaloflowError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(HaloflowError):
    """A parameter value is invalid (unknown preset, bad schedule, out-of-range input)."""


class TopologyError(HaloflowError):
    """The topology graph is malformed or a required route does not exist."""


class SimulationError(HaloflowError):
    """Simulation input is invalid (unknown rank, negative size, broken phase numbering)."""


class ProtocolError(HaloflowError):
    """A halo-exchange protocol invariant was violated (corrupt partition,
    mismatched buffer, desynchronized rank program)."""


class UndefinedIntensityError(HaloflowError):
    """Arithmetic intensity is undefined because the kernel moves zero bytes."""


class ScenarioError(HaloflowError):
    """A scenario document failed validation. ``path`` names the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class TopologySpecError(ScenarioError, TopologyError):
    """A malformed inline topology entry; ``path`` names it, such as ``links[0].lanes``."""
