"""The numerics stamp and the machine context that records it."""

import numpy as np
import pytest

from repro.utils import machine
from repro.utils.machine import machine_context, numerics_stamp


@pytest.fixture()
def fresh_stamp():
    """Recompute the once-per-process stamp around a test."""
    numerics_stamp.cache_clear()
    yield
    numerics_stamp.cache_clear()


def test_stamp_names_kernels_numpy_and_blas(fresh_stamp):
    stamp = numerics_stamp()
    assert stamp == (
        f"kernels={machine.KERNEL_VERSION} numpy={np.__version__} "
        f"blas={machine._blas_vendor()}"
    )
    assert numerics_stamp() is stamp  # computed once per process


@pytest.mark.parametrize(
    "owner, name, value",
    [
        (machine, "KERNEL_VERSION", machine.KERNEL_VERSION + 1),
        (np, "__version__", "0.0.0"),
        (machine, "_blas_vendor", lambda: "another-blas"),
    ],
    ids=["kernel_version", "numpy_version", "blas_vendor"],
)
def test_stamp_changes_with_each_part(fresh_stamp, monkeypatch, owner, name, value):
    before = numerics_stamp()
    monkeypatch.setattr(owner, name, value)
    numerics_stamp.cache_clear()
    assert numerics_stamp() != before


def test_machine_context_records_stamp():
    context = machine_context()
    assert context["numerics"] == numerics_stamp()
