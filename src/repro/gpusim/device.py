"""Simulated device memory: named global buffers backed by numpy arrays."""

from __future__ import annotations

import numpy as np


class DeviceError(Exception):
    """Raised on invalid device-memory operations (double alloc, OOB, ...)."""


class Device:
    """Holds the global-memory buffers a plan's kernels operate on."""

    def __init__(self):
        self._buffers = {}

    def alloc(self, name: str, size: int, dtype=np.float32) -> np.ndarray:
        if name in self._buffers:
            raise DeviceError(f"buffer {name!r} already allocated")
        if size < 1:
            raise DeviceError(f"buffer {name!r} needs positive size, got {size}")
        self._buffers[name] = np.zeros(size, dtype=dtype)
        return self._buffers[name]

    def upload(self, name: str, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data)
        if data.ndim != 1:
            raise DeviceError("only 1-D uploads are supported")
        self._buffers[name] = data.copy()
        return self._buffers[name]

    def bind(self, name: str, array: np.ndarray) -> np.ndarray:
        """Make ``array`` buffer ``name`` as is, without the copy
        :meth:`upload` makes: a read-only view stays read-only, so a
        store into it raises."""
        if array.ndim != 1:
            raise DeviceError("only 1-D buffers are supported")
        self._buffers[name] = array
        return array

    def download(self, name: str) -> np.ndarray:
        return self.get(name).copy()

    def get(self, name: str) -> np.ndarray:
        if name not in self._buffers:
            raise DeviceError(f"unknown buffer {name!r}")
        return self._buffers[name]

    def memset(self, name: str, value=0) -> None:
        self.get(name)[:] = value

    def free(self, name: str) -> None:
        if name not in self._buffers:
            raise DeviceError(f"unknown buffer {name!r}")
        del self._buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def buffer_names(self) -> list:
        return sorted(self._buffers)
