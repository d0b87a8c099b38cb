"""GPU simulator substrate: device, functional SIMT engine, timing model."""

from .arch import ARCHITECTURES, Architecture, KEPLER, MAXWELL, PASCAL, get_architecture
from .backend import get_backend
from .device import Device, DeviceError
from .engine import Executor, SimulationError, analyze_batchability
from .compile import CompiledKernel, compile_kernel
from .events import EVENT_KEYS, PlanProfile, StepProfile
from .timing import (
    MEMSET_OVERHEAD_S,
    TimeBreakdown,
    kernel_time,
    plan_time,
)

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "Device",
    "DeviceError",
    "EVENT_KEYS",
    "CompiledKernel",
    "Executor",
    "analyze_batchability",
    "compile_kernel",
    "get_backend",
    "KEPLER",
    "MAXWELL",
    "MEMSET_OVERHEAD_S",
    "PASCAL",
    "PlanProfile",
    "SimulationError",
    "StepProfile",
    "TimeBreakdown",
    "get_architecture",
    "kernel_time",
    "plan_time",
]
