"""Code generation: codelet→VIR lowering, kernel synthesis, CUDA emission."""

from .compiler import CodeletToVIR, GlobalView, RegisterPartials
from .cuda import CudaEmitter, emit_compound_pair, emit_coop_kernel, emit_version
from .synthesize import (
    Tunables,
    build_plan,
    build_plan_cached,
    kernel_key,
    launch_geometry,
)

__all__ = [
    "CodeletToVIR",
    "CudaEmitter",
    "GlobalView",
    "RegisterPartials",
    "Tunables",
    "build_plan",
    "build_plan_cached",
    "emit_compound_pair",
    "emit_coop_kernel",
    "emit_version",
    "kernel_key",
    "launch_geometry",
]
