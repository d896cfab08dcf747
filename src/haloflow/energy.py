"""Device power accounting and the energy cost of faster timesteps.

Power meters report sparse samples; :func:`window_average` turns them into
a mean draw over a window under a piecewise-constant hold (each sample
holds until the next one).  A two-parameter linear model maps busy
fraction to watts, and :func:`energy_vs_time_series` combines the two
views: speeding a fixed workload up usually lowers the device's busy
fraction per step, so joules per step can rise even as seconds per step
fall.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigurationError, number

__all__ = [
    "PowerSample",
    "PowerModel",
    "EnergyPoint",
    "window_average",
    "energy_per_step",
    "fit_power_model",
    "energy_vs_time_series",
]

# Conservative accelerator envelope used when no fit is available.
DEFAULT_IDLE_WATTS = 50.0
DEFAULT_MAX_WATTS = 300.0


@dataclass(frozen=True)
class PowerSample:
    """One reading from a power meter at time ``t`` seconds; ``watts`` is >= 0."""

    t: float
    watts: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", number(self.t, "t", error=ConfigurationError))
        object.__setattr__(self, "watts",
                           number(self.watts, "watts", low=0, error=ConfigurationError))


@dataclass(frozen=True)
class PowerModel:
    """Linear busy-fraction power model: idle floor plus utilisation slope."""

    p_idle: float = DEFAULT_IDLE_WATTS
    p_max: float = DEFAULT_MAX_WATTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_idle",
                           number(self.p_idle, "p_idle", low=0, error=ConfigurationError))
        object.__setattr__(self, "p_max", number(self.p_max, "p_max", error=ConfigurationError))
        if self.p_max < self.p_idle:
            raise ConfigurationError(
                f"p_max ({self.p_max}) must be >= p_idle ({self.p_idle})"
            )

    def predict(self, busy_fraction: float) -> float:
        """Watts drawn at the given busy fraction in [0, 1]."""
        busy_fraction = number(busy_fraction, "busy_fraction", low=0, high=1,
                               error=ConfigurationError)
        return self.p_idle + busy_fraction * (self.p_max - self.p_idle)


@dataclass(frozen=True)
class EnergyPoint:
    """Energy bill for one configuration of the same workload."""

    name: str
    step_seconds: float
    busy_fraction: float
    devices: int
    watts: float
    joules: float


def window_average(samples: Sequence[PowerSample], t0: float, t1: float) -> float:
    """Mean power over [t0, t1] under a piecewise-constant hold.

    Each sample's value holds until the next sample's timestamp; the first
    value also extends backwards for any window opening before it.  Samples
    must be in strictly increasing time order.
    """
    if t1 <= t0:
        raise ConfigurationError(f"empty window: t0={t0}, t1={t1}")
    if not samples:
        raise ConfigurationError("no power samples")
    times = [s.t for s in samples]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigurationError("power samples must be in strictly increasing time order")
    joules = 0.0
    cursor = t0
    while cursor < t1:
        # Sample in effect at `cursor`; the first one covers earlier times too.
        i = max(bisect_right(times, cursor) - 1, 0)
        seg_end = times[i + 1] if i + 1 < len(times) else t1
        seg_end = min(max(seg_end, cursor), t1)
        if seg_end == cursor:
            seg_end = t1
        joules += samples[i].watts * (seg_end - cursor)
        cursor = seg_end
    return joules / (t1 - t0)


def energy_per_step(watts: float, step_seconds: float, devices: int = 1) -> float:
    """Joules one timestep costs across ``devices`` devices at mean ``watts`` each."""
    watts = number(watts, "watts", low=0, error=ConfigurationError)
    step_seconds = number(step_seconds, "step_seconds", low=0, error=ConfigurationError)
    devices = number(devices, "devices", integer=True, low=1, error=ConfigurationError)
    return watts * step_seconds * devices


def fit_power_model(points: Iterable[tuple[float, float]]) -> PowerModel:
    """Least-squares fit of (busy_fraction, watts) observations.

    Needs at least two distinct busy fractions; with exactly two points the
    fit passes through both.
    """
    pts = [(number(u, "busy_fraction", low=0, high=1, error=ConfigurationError),
            number(w, "watts", error=ConfigurationError)) for u, w in points]
    if len(pts) < 2:
        raise ConfigurationError("need at least two (busy_fraction, watts) points")
    n = len(pts)
    mean_u = sum(u for u, _ in pts) / n
    mean_w = sum(w for _, w in pts) / n
    var_u = sum((u - mean_u) ** 2 for u, _ in pts)
    if var_u == 0.0:
        raise ConfigurationError("busy fractions are all equal; slope is undefined")
    slope = sum((u - mean_u) * (w - mean_w) for u, w in pts) / var_u
    p_idle = mean_w - slope * mean_u
    return PowerModel(p_idle=p_idle, p_max=p_idle + slope)


def energy_vs_time_series(
    model: PowerModel,
    configurations: Iterable[tuple[str, float, float, int]],
) -> tuple[EnergyPoint, ...]:
    """Energy bill per configuration, slowest step first.

    Each configuration is (name, step_seconds, busy_fraction, devices).
    Sorting by descending step time puts the time/energy trade-off in
    reading order: walking the tuple left to right trades seconds for
    joules.  Ties break by name.
    """
    points = []
    for name, step_seconds, busy_fraction, devices in configurations:
        watts = model.predict(busy_fraction)
        points.append(
            EnergyPoint(
                name=name,
                step_seconds=step_seconds,
                busy_fraction=busy_fraction,
                devices=devices,
                watts=watts,
                joules=energy_per_step(watts, step_seconds, devices),
            )
        )
    points.sort(key=lambda p: (-p.step_seconds, p.name))
    return tuple(points)
