"""C toolchain discovery: which C compiler this host has, if any.

No kernel is compiled with it.  Discovery stays because benchmark
environment records (``paperbench/workloads.py::environment_record``)
import :func:`detect_toolchain` and :func:`unavailable_reason` to print
the host's toolchain tag next to every run.

Discovery tries ``$REPRO_NATIVE_CC``, then ``cc``/``gcc``/``clang`` on
``PATH``.  When none works, :func:`unavailable_reason` says why, so a
record on a compiler-less host reads as such instead of erroring.
``REPRO_NATIVE_DISABLE=1`` forces unavailability (used by the tests).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass

#: Compiler candidates probed in order when $REPRO_NATIVE_CC is unset.
_CC_CANDIDATES = ("cc", "gcc", "clang")

_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-fno-strict-aliasing")

#: Host-tuning flags, probed once at discovery; the accepted ones join
#: the toolchain tag.
_TUNE_FLAGS = ("-march=native", "-funroll-loops", "-mprefer-vector-width=512")


@dataclass(frozen=True)
class Toolchain:
    """A discovered C compiler and the host-tuning flags it accepts."""

    cc: str            # absolute compiler path
    version: str       # first line of `cc --version`
    tune: tuple = ()   # accepted host-tuning flags (subset of _TUNE_FLAGS)

    @property
    def tag(self) -> str:
        """Compiler identity + accepted flags, for environment records.

        ``abi1|ffi-any`` are fixed markers so that tags stay comparable
        with those in earlier benchmark records."""
        flags = " ".join(self.tune)
        return f"{self.cc}|{self.version}|abi1|ffi-any|{flags}"


# Discovery is cached process-wide; tests reset it around env changes.
_DETECTED = None       # False = not probed yet; None = unavailable
_DETECT_REASON = None
_NOT_PROBED = False


def reset_toolchain_cache() -> None:
    """Forget discovery results (tests flip env vars around this)."""
    global _DETECTED, _DETECT_REASON
    _DETECTED = _NOT_PROBED
    _DETECT_REASON = None


reset_toolchain_cache()


def _probe() -> tuple:
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return None, "disabled via REPRO_NATIVE_DISABLE"
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        path = shutil.which(override)
        if path is None:
            return None, (
                f"REPRO_NATIVE_CC={override!r} is not an executable on PATH"
            )
        candidates = [path]
    else:
        candidates = [
            p for p in (shutil.which(c) for c in _CC_CANDIDATES) if p
        ]
        if not candidates:
            return None, (
                "no C compiler found (looked for "
                + ", ".join(_CC_CANDIDATES)
                + " on PATH; install one or set REPRO_NATIVE_CC)"
            )
    cc = candidates[0]
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        version = (out.stdout or out.stderr).splitlines()[0].strip()
    except (OSError, subprocess.SubprocessError, IndexError) as exc:
        return None, f"C compiler {cc!r} failed to run: {exc}"
    return Toolchain(cc=cc, version=version,
                     tune=_probe_tune_flags(cc)), None


def _probe_tune_flags(cc) -> tuple:
    """Which of :data:`_TUNE_FLAGS` the compiler accepts (all or none:
    a trivial compile is attempted with the full set)."""
    with tempfile.TemporaryDirectory(prefix="repro-native-probe-") as td:
        src = os.path.join(td, "probe.c")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("int probe(int x) { return x + 1; }\n")
        try:
            r = subprocess.run(
                [cc, *_CFLAGS, *_TUNE_FLAGS, src,
                 "-o", os.path.join(td, "probe.so")],
                capture_output=True, timeout=60,
            )
        except (OSError, subprocess.SubprocessError):
            return ()
    return _TUNE_FLAGS if r.returncode == 0 else ()


def detect_toolchain():
    """The process's toolchain, or None (see :func:`unavailable_reason`)."""
    global _DETECTED, _DETECT_REASON
    if _DETECTED is _NOT_PROBED:
        _DETECTED, _DETECT_REASON = _probe()
    return _DETECTED


def unavailable_reason():
    """Why no C toolchain is usable here, or None when one is."""
    detect_toolchain()
    return _DETECT_REASON
