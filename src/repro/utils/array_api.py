"""Pluggable array-namespace backends for the numerical core.

Every kernel in :mod:`repro.backend` is written against an
:class:`ArrayBackend` handle instead of hard-coded ``np.*`` calls.  A
backend bundles

* the array namespace itself (numpy, torch, cupy, ...),
* an explicit dtype policy (``complex128`` amplitudes, ``float64``
  parameters/probabilities — never implicit ``complex``/``float``
  promotion),
* the two staging points ``asarray`` (host -> namespace) and
  ``to_numpy`` (namespace -> host), and
* the handful of structural/math primitives the kernels need, expressed
  with numpy semantics (torch's divergent calling conventions are
  adapted inside :class:`TorchBackend`).

The registry resolves ``"numpy"`` eagerly; ``"torch"`` and ``"cupy"``
are imported lazily on first use and raise a clear, actionable error
when the library is absent — so merely *configuring* an accelerator
backend never costs an import, and a machine without one still runs the
full numpy suite.

Identity contract
-----------------
The numpy backend is the reference: kernels route plain ``np.ndarray``
inputs through the numpy kernels, whose results are **bit-identical** to
the seed kernels (``tests/oracles.py`` keeps verbatim copies to hold them
to it).  Non-numpy backends are held to
*device tolerance* against numpy on the same seeds: ``allclose`` at
:data:`DEVICE_RTOL` / :data:`DEVICE_ATOL` (complex128 everywhere; the
differences come from reduction order and GEMM kernel choice, not
precision loss).

The ``"loopback"`` backend exists for exactly this contract's test
coverage: its arrays are an ``np.ndarray`` subclass, so it exercises
the full generic device code path (staging, on-namespace kernels,
result-boundary conversion) on any machine, with numpy numerics.

Backend specs
-------------
A backend is selected by name, optionally with a device suffix:
``"numpy"``, ``"torch"``, ``"torch:cuda"``, ``"torch:cuda:1"``,
``"cupy"``, ``"cupy:0"``, ``"loopback"``.
"""

from __future__ import annotations

import functools
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "COMPLEX_DTYPE",
    "FLOAT_DTYPE",
    "DEVICE_RTOL",
    "DEVICE_ATOL",
    "ArrayBackend",
    "BackendFallbackWarning",
    "NumpyBackend",
    "LoopbackBackend",
    "LoopbackArray",
    "TorchBackend",
    "CupyBackend",
    "register_array_backend",
    "get_array_backend",
    "resolve_array_backend",
    "available_array_backends",
    "check_array_backend_name",
    "array_backend_status",
    "array_backend_of",
    "backend_spec_with_fallback",
    "is_device_array",
]

#: The library-wide dtype policy: amplitudes/operators are complex128,
#: parameters/probabilities/gradients are float64.  Kernels must never
#: silently promote or downcast away from these (satellite: dtype
#: discipline); backends express the same policy in their namespace's
#: dtype objects via ``complex_dtype`` / ``float_dtype``.
COMPLEX_DTYPE = np.complex128
FLOAT_DTYPE = np.float64

#: Device-tolerance contract for non-numpy backends vs. the numpy
#: reference, at complex128: reduction order and GEMM kernel choice
#: differ between BLAS and accelerator libraries, precision does not.
DEVICE_RTOL = 1e-10
DEVICE_ATOL = 1e-12


class ArrayBackend:
    """Handle over one array namespace, with numpy calling conventions.

    The base class implements every primitive via a numpy-API-compatible
    module ``self.xp`` (numpy itself, or cupy, whose API matches);
    :class:`TorchBackend` overrides the calls whose torch spelling
    diverges.  Methods are deliberately few: exactly what the
    statevector/gradient kernels need, nothing speculative.
    """

    #: Spec name this backend was registered under.
    name: str = "abstract"
    #: True only for the reference numpy backend: kernels route
    #: ``is_numpy`` backends through the numpy reference kernels.
    is_numpy: bool = False
    #: Budget for one amplitude chunk in ``batch_chunk_rows`` — small on
    #: the CPU (cache-friendly), large on accelerators (launch-overhead
    #: amortization wants the biggest resident batch that fits).
    chunk_bytes: int = 8 * 2**20

    def __init__(self, xp: Any):
        self.xp = xp
        self.complex_dtype = COMPLEX_DTYPE
        self.float_dtype = FLOAT_DTYPE

    # -- staging ----------------------------------------------------------

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        """Stage ``x`` onto the namespace (no copy when already there)."""
        return self.xp.asarray(x, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        """Return ``x`` as a host ``np.ndarray`` (the result boundary)."""
        return np.asarray(x)

    def owns(self, x: Any) -> bool:
        """True when ``x`` is an array of this backend's namespace."""
        raise NotImplementedError

    # -- construction -----------------------------------------------------

    def zeros(self, shape: Sequence[int], dtype: Any) -> Any:
        return self.xp.zeros(tuple(shape), dtype=dtype)

    def empty_like(self, x: Any) -> Any:
        return self.xp.empty_like(x)

    def zeros_like(self, x: Any) -> Any:
        return self.xp.zeros_like(x)

    def copy(self, x: Any) -> Any:
        return x.copy()

    # -- structure --------------------------------------------------------

    def reshape(self, x: Any, shape: Sequence[int]) -> Any:
        return self.xp.reshape(x, tuple(shape))

    def permute(self, x: Any, axes: Sequence[int]) -> Any:
        return self.xp.transpose(x, tuple(axes))

    def broadcast_to(self, x: Any, shape: Sequence[int]) -> Any:
        return self.xp.broadcast_to(x, tuple(shape))

    # -- indexing ---------------------------------------------------------

    def index_array(self, idx: Any) -> Any:
        """Namespace integer index array from a host index array."""
        return self.xp.asarray(idx)

    def take_rows(self, x: Any, idx: Any, out: Any = None) -> Any:
        """Rows ``x[idx]`` (negative rows count from the end), gathered
        into ``out`` and returned when it is given."""
        if out is None:
            return x[self.index_array(idx)]
        if not self.is_numpy:
            out[...] = x[self.index_array(idx)]
            return out
        idx = np.asarray(idx)
        rows = len(x)
        if idx.size and (idx.min() < -rows or idx.max() >= rows):
            raise IndexError(
                f"row index out of range for {rows} rows "
                f"(got {idx.min()}..{idx.max()})"
            )
        # In range, "wrap" is fancy indexing; unlike the default "raise"
        # it writes ``out`` directly instead of through a buffer copy.
        return np.take(x, idx, axis=0, out=out, mode="wrap")

    def put_rows(self, x: Any, idx: Any, values: Any) -> None:
        x[self.index_array(idx)] = values

    # -- math -------------------------------------------------------------

    def matmul(self, a: Any, b: Any) -> Any:
        return self.xp.matmul(a, b)

    def conj(self, x: Any) -> Any:
        return self.xp.conj(x)

    def real(self, x: Any) -> Any:
        return self.xp.real(x)

    def abs_sq(self, x: Any) -> Any:
        return self.xp.abs(x) ** 2

    def sum(self, x: Any, axis: Any = None) -> Any:
        return self.xp.sum(x, axis=axis)

    # -- diagnostics ------------------------------------------------------

    def library_version(self) -> Optional[str]:
        return getattr(self.xp, "__version__", None)

    def device_name(self) -> Optional[str]:
        """Accelerator device name, ``None`` on host-memory backends."""
        return None

    def synchronize(self) -> None:
        """Block until queued device work completes (for timing)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(ArrayBackend):
    """The reference backend: host numpy, bit-identical to the seed."""

    name = "numpy"
    is_numpy = True

    def __init__(self):
        super().__init__(np)

    def owns(self, x: Any) -> bool:
        # ``type`` not ``isinstance``: ndarray *subclasses* (loopback)
        # must route through the generic device path.
        return type(x) is np.ndarray

    def index_array(self, idx: Any) -> Any:
        return idx


class LoopbackArray(np.ndarray):
    """ndarray subclass marking arrays owned by the loopback backend."""


class LoopbackBackend(ArrayBackend):
    """A mock device backend backed by numpy itself.

    Arrays are :class:`LoopbackArray` views, so ``type(x) is np.ndarray``
    is False and every kernel takes its generic on-namespace path —
    staging, device-resident sweeps and result-boundary conversion are
    all exercised without any accelerator library installed.  Numerics
    are numpy's, so loopback results match the reference to device
    tolerance trivially (and usually bit-exactly).
    """

    name = "loopback"
    is_numpy = False

    def __init__(self):
        super().__init__(np)

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        return np.asarray(x, dtype=dtype).view(LoopbackArray)

    def to_numpy(self, x: Any) -> np.ndarray:
        # asarray(subok=False) drops the subclass without copying.
        return np.asarray(x)

    def owns(self, x: Any) -> bool:
        return type(x) is LoopbackArray

    def index_array(self, idx: Any) -> Any:
        # Index arrays are plumbing, not data: keep them base ndarrays.
        return np.asarray(idx)


def _loopback_wrap(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        out = fn(self, *args, **kwargs)
        if isinstance(out, np.ndarray) and type(out) is not LoopbackArray:
            return out.view(LoopbackArray)
        return out

    return wrapped


# numpy ops on a subclass mostly preserve it, but constructors
# (zeros, empty_like) and some reductions return base ndarrays; re-view
# every producing primitive so loopback arrays stay tagged across whole
# simulator sweeps.
for _op in (
    "zeros",
    "empty_like",
    "zeros_like",
    "copy",
    "reshape",
    "permute",
    "broadcast_to",
    "take_rows",
    "matmul",
    "conj",
    "real",
    "abs_sq",
    "sum",
):
    setattr(
        LoopbackBackend, _op, _loopback_wrap(getattr(ArrayBackend, _op))
    )
del _op


class TorchBackend(ArrayBackend):
    """PyTorch namespace (CPU by default, ``"torch:cuda"`` for GPU).

    Adapts torch's calling conventions to the numpy semantics the
    kernels use: ``permute`` members, ``dim=`` reductions, ``torch.long``
    index tensors, and explicit ``complex128``/``float64`` dtype objects.
    """

    name = "torch"
    is_numpy = False
    chunk_bytes = 64 * 2**20

    def __init__(self, torch: Any, device: Optional[str] = None):
        self.xp = torch
        self._torch = torch
        self._device = torch.device(device or "cpu")
        self.complex_dtype = torch.complex128
        self.float_dtype = torch.float64

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        torch = self._torch
        if isinstance(x, torch.Tensor):
            out = x.to(device=self._device)
        else:
            if isinstance(x, np.ndarray) and not x.flags["C_CONTIGUOUS"]:
                # torch.as_tensor rejects some exotic numpy strides.
                x = np.ascontiguousarray(x)
            out = torch.as_tensor(x, device=self._device)
        if dtype is not None and out.dtype != dtype:
            out = out.to(dtype)
        return out

    def to_numpy(self, x: Any) -> np.ndarray:
        if isinstance(x, np.ndarray):
            return x
        out = x.detach()
        if out.is_conj():
            out = out.resolve_conj()
        host = out.cpu()
        array = host.numpy()
        # CPU tensors share memory with their numpy view; copy so the
        # host result is independent of later device-buffer reuse.
        return array.copy() if host is out else array

    def owns(self, x: Any) -> bool:
        return isinstance(x, self._torch.Tensor)

    def zeros(self, shape: Sequence[int], dtype: Any) -> Any:
        return self._torch.zeros(
            tuple(shape), dtype=dtype, device=self._device
        )

    def empty_like(self, x: Any) -> Any:
        return self._torch.empty_like(x)

    def zeros_like(self, x: Any) -> Any:
        return self._torch.zeros_like(x)

    def copy(self, x: Any) -> Any:
        return x.clone()

    def reshape(self, x: Any, shape: Sequence[int]) -> Any:
        return x.reshape(tuple(shape))

    def permute(self, x: Any, axes: Sequence[int]) -> Any:
        return x.permute(tuple(int(axis) for axis in axes))

    def broadcast_to(self, x: Any, shape: Sequence[int]) -> Any:
        return self._torch.broadcast_to(x, tuple(shape))

    def index_array(self, idx: Any) -> Any:
        return self._torch.as_tensor(
            np.ascontiguousarray(idx),
            dtype=self._torch.long,
            device=self._device,
        )

    def matmul(self, a: Any, b: Any) -> Any:
        return self._torch.matmul(a, b)

    def conj(self, x: Any) -> Any:
        return x.conj()

    def real(self, x: Any) -> Any:
        return x.real if x.is_complex() else x

    def abs_sq(self, x: Any) -> Any:
        return self._torch.abs(x) ** 2

    def sum(self, x: Any, axis: Any = None) -> Any:
        if axis is None:
            return self._torch.sum(x)
        return self._torch.sum(x, dim=axis)

    def library_version(self) -> Optional[str]:
        return getattr(self._torch, "__version__", None)

    def device_name(self) -> Optional[str]:
        if self._device.type == "cuda":
            try:
                return str(self._torch.cuda.get_device_name(self._device))
            except Exception:  # pragma: no cover - driver-dependent
                return str(self._device)
        return str(self._device)

    def synchronize(self) -> None:
        if self._device.type == "cuda":  # pragma: no cover - needs GPU
            self._torch.cuda.synchronize(self._device)


class CupyBackend(ArrayBackend):
    """CuPy namespace — numpy-API-compatible, so the generic primitives
    apply verbatim; only staging/diagnostics are CUDA-specific."""

    name = "cupy"
    is_numpy = False
    chunk_bytes = 64 * 2**20

    def __init__(self, cupy: Any, device: Optional[str] = None):
        super().__init__(cupy)
        self._cupy = cupy
        self._device_index = int(device) if device is not None else None
        if self._device_index is not None:  # pragma: no cover - needs GPU
            cupy.cuda.Device(self._device_index).use()

    def to_numpy(self, x: Any) -> np.ndarray:
        return self._cupy.asnumpy(x)

    def owns(self, x: Any) -> bool:
        return isinstance(x, self._cupy.ndarray)

    def device_name(self) -> Optional[str]:  # pragma: no cover - needs GPU
        try:
            device = self._cupy.cuda.Device(self._device_index)
            properties = self._cupy.cuda.runtime.getDeviceProperties(
                device.id
            )
            name = properties["name"]
            return name.decode() if isinstance(name, bytes) else str(name)
        except Exception:
            return None

    def synchronize(self) -> None:  # pragma: no cover - needs GPU
        self._cupy.cuda.get_current_stream().synchronize()


# -- registry -------------------------------------------------------------

#: Backend factories keyed by base name; each takes the optional device
#: suffix of the spec string and returns a fresh backend (or raises a
#: clear ImportError when the namespace library is missing).
_FACTORIES: Dict[str, Callable[[Optional[str]], ArrayBackend]] = {}
#: Resolved backends cached per full spec string (``"torch:cuda"`` and
#: ``"torch"`` are distinct handles).
_RESOLVED: Dict[str, ArrayBackend] = {}


def register_array_backend(
    name: str, factory: Callable[[Optional[str]], ArrayBackend]
) -> None:
    """Register a backend factory under ``name`` (overwrites allowed)."""
    _FACTORIES[str(name)] = factory
    _RESOLVED.pop(str(name), None)


def _numpy_factory(device: Optional[str]) -> ArrayBackend:
    if device is not None:
        raise ValueError(
            f"the numpy backend has no devices (got spec 'numpy:{device}')"
        )
    return NumpyBackend()


def _loopback_factory(device: Optional[str]) -> ArrayBackend:
    if device is not None:
        raise ValueError(
            f"the loopback backend has no devices (got spec "
            f"'loopback:{device}')"
        )
    return LoopbackBackend()


def _missing_namespace_error(name: str, package: str) -> ImportError:
    return ImportError(
        f"array backend {name!r} requires the optional dependency "
        f"{package!r}, which is not installed in this environment. "
        f"Install it (e.g. `pip install {package}`) or select one of the "
        f"always-available backends: numpy, loopback."
    )


def _torch_factory(device: Optional[str]) -> ArrayBackend:
    try:
        import torch
    except ImportError as exc:
        raise _missing_namespace_error("torch", "torch") from exc
    return TorchBackend(torch, device)


def _cupy_factory(device: Optional[str]) -> ArrayBackend:
    try:
        import cupy
    except ImportError as exc:
        raise _missing_namespace_error("cupy", "cupy") from exc
    return CupyBackend(cupy, device)


register_array_backend("numpy", _numpy_factory)
register_array_backend("loopback", _loopback_factory)
register_array_backend("torch", _torch_factory)
register_array_backend("cupy", _cupy_factory)


def available_array_backends() -> List[str]:
    """Sorted registered backend names (availability not probed)."""
    return sorted(_FACTORIES)


def check_array_backend_name(spec: Any) -> str:
    """Validate a backend spec's name without importing its namespace.

    Configs and specs call this at construction, so a typo fails there
    with a one-line :class:`ValueError`.  Only the name before ``:`` is
    checked against the registry; a registered but missing library (torch,
    cupy) still raises its :class:`ImportError` when the backend is first
    resolved, which is what graceful fallback relies on.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(
            f"backend must be a non-empty array-backend spec string, "
            f"got {spec!r}"
        )
    name = spec.partition(":")[0]
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; choose from "
            f"{available_array_backends()}"
        )
    return spec


def get_array_backend(spec: str = "numpy") -> ArrayBackend:
    """Resolve a backend spec string to a (cached) :class:`ArrayBackend`.

    ``spec`` is ``"<name>"`` or ``"<name>:<device>"``.  ``"numpy"`` (and
    ``"loopback"``) resolve eagerly; ``"torch"``/``"cupy"`` import their
    library on first resolution and raise an actionable
    :class:`ImportError` when it is missing.
    """
    spec = str(spec)
    cached = _RESOLVED.get(spec)
    if cached is not None:
        return cached
    name, _, device = spec.partition(":")
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown array backend {name!r}; choose from "
            f"{available_array_backends()}"
        ) from None
    backend = factory(device or None)
    _RESOLVED[spec] = backend
    return backend


class BackendFallbackWarning(RuntimeWarning):
    """A configured accelerator backend degraded to the numpy reference.

    Emitted once per backend spec per process by
    :func:`backend_spec_with_fallback` when a non-numpy namespace fails
    to import or initialize and graceful degradation is enabled
    (``ExperimentSpec.backend_fallback`` / ``REPRO_BACKEND_FALLBACK``).
    """


#: Backend specs already warned about by :func:`backend_spec_with_fallback`
#: — the degradation is structural, so one warning per process suffices.
_FALLBACK_WARNED: set = set()


def backend_spec_with_fallback(spec: str) -> str:
    """Return ``spec`` if it resolves, else ``"numpy"`` with one warning.

    Graceful degradation for deployments that prefer slow-but-running
    over crashed: an accelerator namespace that fails to import
    (:class:`ImportError`) or to initialize (:class:`RuntimeError`, e.g.
    a CUDA driver mismatch) degrades to the always-available numpy
    reference.  A genuinely unknown backend *name* still raises — a typo
    is a config bug, not an environment condition.  The warning is a
    :class:`BackendFallbackWarning`, emitted once per spec per process.
    """
    spec = str(spec)
    if spec.partition(":")[0] == "numpy":
        return "numpy"
    check_array_backend_name(spec)  # fail fast on typos
    try:
        get_array_backend(spec)
        return spec
    except (ImportError, RuntimeError) as error:
        if spec not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(spec)
            warnings.warn(
                f"array backend {spec!r} is unavailable "
                f"({type(error).__name__}: {error}); falling back to the "
                f"numpy reference backend. Results are computed with "
                f"numpy numerics and fingerprinted as numpy.",
                BackendFallbackWarning,
                stacklevel=3,
            )
        return "numpy"


def resolve_array_backend(
    backend: Union[None, str, ArrayBackend]
) -> ArrayBackend:
    """Normalize ``None`` / spec string / instance to a backend handle."""
    if backend is None:
        return get_array_backend("numpy")
    if isinstance(backend, ArrayBackend):
        return backend
    return get_array_backend(backend)


def array_backend_status() -> List[Dict[str, Any]]:
    """Availability of every registered backend (for ``repro info``).

    Probing resolves each backend once; a missing optional library is
    reported (with its error message), never raised.
    """
    status: List[Dict[str, Any]] = []
    for name in available_array_backends():
        entry: Dict[str, Any] = {"name": name}
        try:
            backend = get_array_backend(name)
        except ImportError as exc:
            entry["available"] = False
            entry["detail"] = str(exc)
        else:
            entry["available"] = True
            entry["version"] = backend.library_version()
            device = backend.device_name()
            if device is not None:
                entry["device"] = device
        status.append(entry)
    return status


def array_backend_of(array: Any) -> ArrayBackend:
    """Backend owning ``array``; plain ndarrays (and anything no loaded
    backend claims) belong to numpy."""
    for backend in _RESOLVED.values():
        if not backend.is_numpy and backend.owns(array):
            return backend
    return get_array_backend("numpy")


def is_device_array(array: Any) -> bool:
    """True when ``array`` belongs to a non-numpy backend.

    The check is cheap for the hot path: plain ndarrays short-circuit
    without touching the registry.
    """
    if type(array) is np.ndarray:
        return False
    return not array_backend_of(array).is_numpy
