"""GPU simulator substrate: device, functional SIMT engine, timing model."""

from .arch import ARCHITECTURES, Architecture, KEPLER, MAXWELL, PASCAL, get_architecture
from .backend import Backend, backend_names, get_backend, register_backend
from .device import Device, DeviceError
from .engine import (
    EXECUTION_BACKENDS,
    Executor,
    SimulationError,
    analyze_batchability,
    run_plan,
)
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
    "EXECUTION_BACKENDS",
    "Backend",
    "CompiledKernel",
    "Executor",
    "analyze_batchability",
    "backend_names",
    "compile_kernel",
    "get_backend",
    "register_backend",
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
    "run_plan",
]
