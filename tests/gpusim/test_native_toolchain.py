"""C toolchain discovery: unavailable with a reason, never a crash.

The toolchain module only discovers a C compiler; its tag and
reason strings go into benchmark environment records.  These tests
force unavailability via ``REPRO_NATIVE_DISABLE`` and check that the
process-wide discovery cache recovers after a reset.
"""

import os

import pytest

from repro.gpusim.native.toolchain import (
    detect_toolchain,
    reset_toolchain_cache,
    unavailable_reason,
)


@pytest.fixture
def disabled(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    reset_toolchain_cache()
    yield
    monkeypatch.undo()
    reset_toolchain_cache()


def test_unavailable_with_reason(disabled):
    assert detect_toolchain() is None
    assert "REPRO_NATIVE_DISABLE" in unavailable_reason()


def test_availability_recovers_after_reset(disabled):
    assert detect_toolchain() is None
    # Fixture teardown restores env + cache; simulate it inline so
    # the recovery path itself is under test.
    del os.environ["REPRO_NATIVE_DISABLE"]
    reset_toolchain_cache()
    assert (detect_toolchain() is not None) == (unavailable_reason() is None)
