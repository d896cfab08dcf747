"""Roofline performance model for kernel samples.

A machine is summarised by two ceilings: peak floating-point throughput and
sustained memory bandwidth.  A kernel sample (flops executed, bytes moved,
wall seconds) lands on the roofline chart at its arithmetic intensity, and
its efficiency is measured against whichever ceiling binds at that
intensity: achieved bandwidth against the memory roof below the ridge
point, achieved flop rate against the compute roof above it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigurationError, UndefinedIntensityError, number

__all__ = [
    "MachineModel",
    "KernelSample",
    "KernelPoint",
    "RooflineConsistencyWarning",
    "arithmetic_intensity",
    "attainable_flops",
    "percent_of_roofline",
    "roofline_report",
]

# Volta-class defaults: FP64 peak and measured STREAM-like bandwidth.
PEAK_FLOPS = 7.8e12
STREAM_BANDWIDTH = 8.55e11


class RooflineConsistencyWarning(UserWarning):
    """A sample claims more throughput than the model says is attainable."""


@dataclass(frozen=True)
class MachineModel:
    """Two-ceiling roofline machine description; both ceilings finite and positive."""

    peak_flops: float = PEAK_FLOPS
    stream_bandwidth: float = STREAM_BANDWIDTH

    def __post_init__(self) -> None:
        for name in ("peak_flops", "stream_bandwidth"):
            object.__setattr__(self, name, number(getattr(self, name), name, low=0,
                                                  low_open=True, error=ConfigurationError))

    @property
    def ridge_intensity(self) -> float:
        """Intensity (flop/byte) where the memory roof meets the compute roof."""
        return self.peak_flops / self.stream_bandwidth


@dataclass(frozen=True)
class KernelSample:
    """Measured execution of one kernel: work done and time taken.

    ``flops`` and ``bytes_moved`` are finite and >= 0, ``seconds`` finite and positive.
    """

    name: str
    flops: float
    bytes_moved: float
    seconds: float

    def __post_init__(self) -> None:
        for name, low_open in (("flops", False), ("bytes_moved", False), ("seconds", True)):
            object.__setattr__(self, name, number(getattr(self, name), name, low=0,
                                                  low_open=low_open, error=ConfigurationError))


@dataclass(frozen=True)
class KernelPoint:
    """One kernel placed on the roofline chart."""

    name: str
    intensity: float
    achieved_flops: float
    attainable: float
    percent: float
    seconds: float
    time_share: float


def arithmetic_intensity(flops: float, bytes_moved: float) -> float:
    """Flops per byte of memory traffic.

    Undefined when no bytes move: a kernel that touches no memory has no
    position on the intensity axis.
    """
    if bytes_moved <= 0.0:
        raise UndefinedIntensityError(
            f"arithmetic intensity undefined for bytes_moved={bytes_moved}"
        )
    return flops / bytes_moved


def attainable_flops(machine: MachineModel, intensity: float) -> float:
    """Roofline ceiling at the given intensity: min(peak, intensity * stream)."""
    if intensity < 0.0:
        raise ConfigurationError(f"intensity must be >= 0, got {intensity}")
    return min(machine.peak_flops, intensity * machine.stream_bandwidth)


def percent_of_roofline(machine: MachineModel, sample: KernelSample) -> float:
    """Percent of the binding ceiling this sample achieves.

    Below the ridge point the kernel is memory bound and is scored as
    achieved bandwidth over stream bandwidth; at or above the ridge it is
    compute bound and scored as achieved flop rate over peak.  Values above
    100 indicate an inconsistent measurement and raise a
    :class:`RooflineConsistencyWarning` (the value is still returned).
    """
    intensity = arithmetic_intensity(sample.flops, sample.bytes_moved)
    if intensity < machine.ridge_intensity:
        achieved = sample.bytes_moved / sample.seconds
        percent = 100.0 * achieved / machine.stream_bandwidth
    else:
        achieved = sample.flops / sample.seconds
        percent = 100.0 * achieved / machine.peak_flops
    if percent > 100.0 * (1.0 + 1e-12):
        warnings.warn(
            f"kernel {sample.name!r} reports {percent:.2f}% of the roofline ceiling; "
            "the sample is inconsistent with the machine model",
            RooflineConsistencyWarning,
            stacklevel=2,
        )
    return percent


def roofline_report(
    machine: MachineModel, samples: Iterable[KernelSample]
) -> tuple[KernelPoint, ...]:
    """Place every sample on the roofline, largest time share first.

    Ties on time share break by name so the report order is reproducible.
    """
    ordered: Sequence[KernelSample] = tuple(samples)
    if not ordered:
        return ()
    total = sum(s.seconds for s in ordered)
    points = []
    for s in ordered:
        intensity = arithmetic_intensity(s.flops, s.bytes_moved)
        points.append(
            KernelPoint(
                name=s.name,
                intensity=intensity,
                achieved_flops=s.flops / s.seconds,
                attainable=attainable_flops(machine, intensity),
                percent=percent_of_roofline(machine, s),
                seconds=s.seconds,
                time_share=s.seconds / total,
            )
        )
    points.sort(key=lambda p: (-p.time_share, p.name))
    return tuple(points)
