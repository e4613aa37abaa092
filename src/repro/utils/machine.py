"""Host machine context for benchmark payloads, and the numerics stamp.

Every ``BENCH_*.json`` emitted by the benchmark suite embeds
:func:`machine_context`, so perf numbers collected across commits (and
across machines) stay comparable: a regression on one host is only
meaningful against earlier numbers from a comparable CPU / BLAS / numpy
combination.  Since the array-backend abstraction the context also
records which array namespace produced the numbers (name, library
version, device when an accelerator is importable) — a torch-on-GPU
timing must never be compared against a numpy baseline unlabelled.

:func:`numerics_stamp` names what output bits depend on besides a run's
inputs: the kernels' own arithmetic (:data:`KERNEL_VERSION`), numpy's
version and the BLAS it calls.  Every run and unit fingerprint carries
it (``repro.core.spec``), so stored results, shards and checkpoints from
other numerics miss instead of mixing with this process's bits.
"""

from __future__ import annotations

import os
import platform
from functools import lru_cache
from typing import Any, Dict

import numpy as np

__all__ = ["KERNEL_VERSION", "machine_context", "numerics_stamp"]

#: Version of the kernels' arithmetic.  Bump it with any change that
#: moves an output bit — which kernel a gate takes, the order of an
#: accumulation — so results stored under the old arithmetic miss.
#: 2: every trainable slot is one dense GEMM, diagonal gates included.
#: 3: up to three consecutive rotation slots on the trailing axes are one
#: GEMM by their Kronecker product.
KERNEL_VERSION = 3


def _blas_vendor() -> "str | None":
    """Best-effort name of the BLAS implementation numpy was built against.

    numpy >= 1.26 exposes build metadata via ``show_config(mode="dicts")``;
    older builds fall back to the legacy ``__config__`` info dicts.  Either
    probe failing simply reports ``None`` — payloads must never fail over
    diagnostics.
    """
    try:
        info = np.show_config(mode="dicts")
        return str(info["Build Dependencies"]["blas"]["name"])
    except Exception:
        pass
    try:  # pragma: no cover - legacy numpy builds only
        for key in ("blas_ilp64_opt_info", "blas_opt_info", "blas_info"):
            entry = np.__config__.get_info(key)
            if entry:
                libraries = entry.get("libraries")
                if libraries:
                    return str(libraries[0])
    except Exception:
        pass
    return None


def _array_backend_context(spec: str) -> Dict[str, Any]:
    """Best-effort description of the active array backend.

    Resolves ``spec`` through :mod:`repro.utils.array_api` and reports its
    name, the backing library's version, and the device name when the
    backend exposes one (e.g. a CUDA device for ``torch``/``cupy``).  Any
    failure — including the namespace simply not being installed — is
    folded into the payload rather than raised: benchmark payloads must
    never fail over diagnostics.
    """
    context: Dict[str, Any] = {"name": str(spec)}
    try:
        from repro.utils.array_api import get_array_backend

        backend = get_array_backend(spec)
        context["name"] = backend.name
        context["version"] = backend.library_version()
        context["device"] = backend.device_name()
    except Exception as exc:
        context["error"] = f"{type(exc).__name__}: {exc}"
    return context


@lru_cache(maxsize=None)
def numerics_stamp() -> str:
    """What this process's output bits depend on besides the inputs:
    ``"kernels=<KERNEL_VERSION> numpy=<version> blas=<vendor>"``.

    Computed once per process.  Nothing sets it: it is read off the
    running code and libraries, so two builds that could disagree in a
    last bit never share a fingerprint.
    """
    return f"kernels={KERNEL_VERSION} numpy={np.__version__} blas={_blas_vendor()}"


def machine_context(array_backend: str = "numpy") -> Dict[str, Any]:
    """JSON-able snapshot of the hardware/software running a benchmark.

    Keys: ``cpu_count``, ``machine``, ``platform``, ``python_version``,
    ``numpy_version``, ``blas_vendor`` (``None`` when undetectable),
    ``numerics`` (:func:`numerics_stamp`), and ``array_backend`` — the
    resolved namespace's ``{name, version, device}`` (or ``{name,
    error}`` when it cannot be resolved).  Pass the backend spec the
    benchmark actually ran on; the default records the numpy backend.
    """
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_vendor": _blas_vendor(),
        "numerics": numerics_stamp(),
        "array_backend": _array_backend_context(array_backend),
    }
