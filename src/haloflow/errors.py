"""Exception types shared across the package, and the checks of a document's values.

Every error raised on purpose by this package derives from HaloflowError so
callers can catch one base class at the CLI boundary and map it to an exit
code.  An error may carry a ``path`` naming the offending field, such as
``workload.ranks``; its text is then ``"path: message"``.  Every number the
scenario parser reads and every numeric field of a public constructor goes
through :func:`number`.  The scenario parser and the topology spec check read
a document through :func:`mapping`, :func:`check_keys`, :func:`get` and
:func:`objects`, which report each fault, a missing key too, at its own path.
Each caller names the error class, and so the exit code, a check raises.
"""

import math
import sys
from collections.abc import Mapping, Sequence
from numbers import Real
from operator import index


class HaloflowError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, path: str = ""):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


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


class TopologySpecError(ScenarioError, TopologyError):
    """A malformed inline topology entry; ``path`` names it, such as ``links[0].lanes``."""


def number(value: object, path: str, *, integer: bool = False, low: float | None = None,
           high: float | None = None, low_open: bool = False,
           error: type[HaloflowError] = ScenarioError) -> int | float:
    """``value`` as a canonical ``int`` (with ``integer``) or ``float``.

    Raises ``error`` at ``path`` for a bool or a non-``Real`` ("expected a
    number, got str"), a value ``operator.index`` refuses where an integer
    is required ("expected an integer, got float"; numpy ints pass), NaN,
    an infinity or an int a double cannot hold ("expected a finite
    number"), and a value below ``low``, at it with ``low_open``, or above
    ``high``, given only with ``low`` ("ranks must be >= 1", naming the
    last dotted part of ``path``).  A bounded float field says "must be
    finite and >= 0" for every value it refuses but a non-number.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        kind = "an integer" if integer else "a number"
        raise error(f"expected {kind}, got {type(value).__name__}", path)
    if integer:
        try:
            value = index(value)
        except TypeError:
            raise error(f"expected an integer, got {type(value).__name__}", path) from None
        finite = abs(value) <= sys.float_info.max
    else:
        try:
            value = float(value)
        except OverflowError:  # an int or a fraction beyond double range
            value = math.inf
        finite = math.isfinite(value)
    if not finite and (integer or low is None):
        raise error("expected a finite number", path)
    if finite and (low is None or value > low or value == low and not low_open) and (
            high is None or value <= high):
        return value
    if high is not None:
        bound = f"in [{low}, {high}]"
    else:
        bound = ("positive" if low == 0 else f"> {low}") if low_open else f">= {low}"
        bound = bound if integer else f"finite and {bound}"
    raise error(f"{path.rpartition('.')[2]} must be {bound}", path)


_MISSING = object()


def _join(path: str, key: object) -> str:
    return f"{path}.{key}" if path else str(key)


def mapping(value: object, path: str, *, error: type[HaloflowError] = ScenarioError) -> Mapping:
    """``value``, if it is a mapping; else raises ``error`` at ``path``."""
    if not isinstance(value, Mapping):
        raise error(f"expected an object, got {type(value).__name__}", path)
    return value


def check_keys(doc: Mapping, allowed: Sequence[str], path: str, *,
               error: type[HaloflowError] = ScenarioError) -> None:
    """Raise ``error`` at the first key of ``doc``, in sorted order, not in ``allowed``."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise error(f"unknown key {unknown[0]!r}", _join(path, unknown[0]))


def get(doc: Mapping, key: str, kind: type, path: str, default: object = _MISSING, *,
        error: type[HaloflowError] = ScenarioError, **bounds):
    """``doc[key]`` checked as a ``kind`` (``int`` or ``float`` by :func:`number` with
    ``bounds``; a ``list`` may be a tuple), or ``default`` if given and it is absent."""
    sub = _join(path, key)
    if key not in doc:
        if default is _MISSING:
            raise error("missing required key", sub)
        return default
    value = doc[key]
    if kind is float or kind is int:
        return number(value, sub, integer=kind is int, error=error, **bounds)
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise error(f"expected {kind.__name__}, got {type(value).__name__}", sub)
    return value


def objects(doc: Mapping, key: str, allowed: Sequence[str], path: str, *,
            error: type[HaloflowError] = ScenarioError):
    """``(entry, path)`` per entry of the list ``doc[key]``; entries are objects of ``allowed``."""
    for i, entry in enumerate(get(doc, key, list, path, error=error)):
        at = f"{_join(path, key)}[{i}]"
        check_keys(mapping(entry, at, error=error), allowed, at, error=error)
        yield entry, at
