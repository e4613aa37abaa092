"""Unit tests for the pluggable array-namespace registry and backends."""

import importlib.util

import numpy as np
import pytest

from repro.utils.array_api import (
    COMPLEX_DTYPE,
    DEVICE_ATOL,
    DEVICE_RTOL,
    FLOAT_DTYPE,
    ArrayBackend,
    LoopbackArray,
    LoopbackBackend,
    NumpyBackend,
    array_backend_of,
    array_backend_status,
    available_array_backends,
    check_array_backend_name,
    get_array_backend,
    is_device_array,
    register_array_backend,
    resolve_array_backend,
)


def _installed(module):
    return importlib.util.find_spec(module) is not None


class TestDtypePolicy:
    def test_constants_are_the_canonical_dtypes(self):
        assert COMPLEX_DTYPE is np.complex128
        assert FLOAT_DTYPE is np.float64

    def test_device_tolerance_is_tight(self):
        # complex128 everywhere: backend disagreement comes from reduction
        # order, not precision, so the contract stays near machine epsilon.
        assert DEVICE_RTOL <= 1e-10
        assert DEVICE_ATOL <= 1e-12

    def test_backends_expose_dtype_policy(self):
        backend = get_array_backend("numpy")
        assert backend.complex_dtype is COMPLEX_DTYPE
        assert backend.float_dtype is FLOAT_DTYPE


class TestRegistry:
    def test_builtin_names(self):
        assert available_array_backends() == [
            "cupy",
            "loopback",
            "numpy",
            "torch",
        ]

    def test_numpy_resolves_eagerly_and_caches(self):
        backend = get_array_backend("numpy")
        assert isinstance(backend, NumpyBackend)
        assert backend.is_numpy
        assert get_array_backend("numpy") is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_array_backend("tensorflow")

    def test_name_check_rejects_unknown_and_empty_names(self):
        for spec in ("tensorflow", "tensorflow:0", ":cuda"):
            with pytest.raises(ValueError, match="unknown array backend"):
                check_array_backend_name(spec)
        for spec in ("", None, 3):
            with pytest.raises(ValueError, match="non-empty"):
                check_array_backend_name(spec)

    def test_name_check_never_imports_the_namespace(self, monkeypatch):
        def unreachable(device):
            raise AssertionError("the backend factory ran")

        from repro.utils import array_api

        for name in available_array_backends():
            monkeypatch.setitem(array_api._FACTORIES, name, unreachable)
            assert check_array_backend_name(name) == name
            assert check_array_backend_name(f"{name}:1") == f"{name}:1"

    def test_configs_and_specs_reject_unknown_backends(self):
        from repro.core import ExperimentSpec, TrainingConfig, VarianceConfig

        for build in (
            lambda: VarianceConfig(backend="nosuch"),
            lambda: TrainingConfig(backend="nosuch"),
            lambda: ExperimentSpec(kind="training", backend="nosuch"),
        ):
            with pytest.raises(ValueError, match="unknown array backend 'nosuch'"):
                build()

    def test_numpy_rejects_device_suffix(self):
        with pytest.raises(ValueError, match="no devices"):
            get_array_backend("numpy:cuda")

    def test_resolve_normalizes_all_forms(self):
        backend = get_array_backend("numpy")
        assert resolve_array_backend(None) is backend
        assert resolve_array_backend("numpy") is backend
        assert resolve_array_backend(backend) is backend

    def test_register_custom_backend_with_device_suffix(self):
        seen = []

        def factory(device):
            seen.append(device)
            return LoopbackBackend()

        register_array_backend("_test_custom", factory)
        try:
            get_array_backend("_test_custom")
            get_array_backend("_test_custom:dev3")
            assert seen == [None, "dev3"]
        finally:
            from repro.utils import array_api

            array_api._FACTORIES.pop("_test_custom", None)
            array_api._RESOLVED.pop("_test_custom", None)
            array_api._RESOLVED.pop("_test_custom:dev3", None)

    @pytest.mark.parametrize("name", ["torch", "cupy"])
    def test_optional_backends_lazy_and_actionable(self, name):
        if _installed(name):
            backend = get_array_backend(name)
            assert backend.name == name
            assert not backend.is_numpy
        else:
            with pytest.raises(ImportError, match=f"pip install {name}"):
                get_array_backend(name)
            # The error names always-available fallbacks.
            with pytest.raises(ImportError, match="numpy, loopback"):
                get_array_backend(name)

    def test_status_reports_every_backend_without_raising(self):
        status = array_backend_status()
        names = [entry["name"] for entry in status]
        assert names == available_array_backends()
        by_name = {entry["name"]: entry for entry in status}
        assert by_name["numpy"]["available"] is True
        assert by_name["numpy"]["version"] == np.__version__
        for name in ("torch", "cupy"):
            entry = by_name[name]
            if entry["available"]:
                assert entry["version"]
            else:
                assert "not installed" in entry["detail"]


class TestNumpyBackend:
    def test_owns_is_type_strict(self):
        backend = get_array_backend("numpy")
        plain = np.zeros(3)
        assert backend.owns(plain)
        assert not backend.owns(plain.view(LoopbackArray))

    def test_ops_are_numpy_aliases(self):
        # Shared code paths call these on the numpy backend too; they must
        # be exact numpy operations for the bit-identity contract.
        backend = get_array_backend("numpy")
        x = np.arange(12, dtype=FLOAT_DTYPE).reshape(3, 4)
        assert np.array_equal(backend.take_rows(x, np.array([2, 0])), x[[2, 0]])
        out = backend.empty_like(x)
        backend.put_rows(out, np.array([0, 1, 2]), x)
        assert np.array_equal(out, x)
        assert backend.index_array([1, 2]) == [1, 2]  # passthrough

    def test_staging_is_identity(self):
        backend = get_array_backend("numpy")
        x = np.arange(4, dtype=COMPLEX_DTYPE)
        assert backend.asarray(x) is x
        assert backend.to_numpy(x) is x


def _row_backends():
    params = [pytest.param(name, id=name) for name in ("numpy", "loopback")]
    for name in ("torch", "cupy"):
        marks = [] if _installed(name) else [
            pytest.mark.skip(reason=f"optional namespace {name!r} not installed")
        ]
        params.append(pytest.param(name, id=name, marks=marks))
    return params


class TestTakeRowsInto:
    """``take_rows(x, idx, out=)`` gathers into a caller-owned buffer."""

    @pytest.mark.parametrize("name", _row_backends())
    def test_equals_fancy_indexing_with_negative_rows(self, name):
        backend = get_array_backend(name)
        host = np.arange(24, dtype=COMPLEX_DTYPE).reshape(6, 4) * (1 - 2j)
        x = backend.asarray(host)
        idx = np.array([5, -1, 0, -6, 2, 2, -3])
        out = backend.zeros((idx.size, 4), backend.complex_dtype)
        gathered = backend.take_rows(x, idx, out=out)
        assert gathered is out
        assert np.array_equal(backend.to_numpy(out), host[idx])

    @pytest.mark.parametrize("name", _row_backends())
    @pytest.mark.parametrize("row", [6, -7])
    def test_out_of_range_row_raises(self, name, row):
        backend = get_array_backend(name)
        x = backend.asarray(np.zeros((6, 4), dtype=COMPLEX_DTYPE))
        out = backend.zeros((2, 4), backend.complex_dtype)
        with pytest.raises(IndexError):
            backend.take_rows(x, np.array([0, row]), out=out)


class TestLoopbackBackend:
    def test_asarray_tags_and_to_numpy_untags(self):
        backend = get_array_backend("loopback")
        x = np.arange(4, dtype=COMPLEX_DTYPE)
        tagged = backend.asarray(x)
        assert type(tagged) is LoopbackArray
        assert backend.owns(tagged)
        assert not backend.owns(x)
        host = backend.to_numpy(tagged)
        assert type(host) is np.ndarray
        # Staging in either direction is a view, not a copy.
        assert np.shares_memory(tagged, x)
        assert np.shares_memory(host, tagged)

    def test_producing_ops_stay_tagged(self):
        backend = get_array_backend("loopback")
        x = backend.asarray(np.arange(8, dtype=COMPLEX_DTYPE).reshape(2, 4))
        for out in (
            backend.zeros((2, 2), backend.complex_dtype),
            backend.empty_like(x),
            backend.copy(x),
            backend.reshape(x, (4, 2)),
            backend.conj(x),
            backend.abs_sq(x),
            backend.sum(x, axis=1),
            backend.matmul(x, backend.permute(x, (1, 0))),
            backend.take_rows(x, np.array([1])),
        ):
            assert type(out) is LoopbackArray, out

    def test_numerics_match_numpy(self):
        backend = get_array_backend("loopback")
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        device = backend.matmul(backend.asarray(a), backend.asarray(a))
        assert np.array_equal(backend.to_numpy(device), a @ a)

    def test_rejects_device_suffix(self):
        with pytest.raises(ValueError, match="no devices"):
            get_array_backend("loopback:0")


class TestOwnership:
    def test_array_backend_of(self):
        loopback = get_array_backend("loopback")
        assert array_backend_of(np.zeros(2)).is_numpy
        assert array_backend_of(loopback.asarray(np.zeros(2))) is loopback

    def test_is_device_array(self):
        loopback = get_array_backend("loopback")
        assert not is_device_array(np.zeros(2))
        assert is_device_array(loopback.asarray(np.zeros(2)))

    def test_scalars_belong_to_numpy(self):
        assert array_backend_of(1.0).is_numpy


class TestDiagnostics:
    def test_numpy_diagnostics(self):
        backend = get_array_backend("numpy")
        assert backend.library_version() == np.__version__
        assert backend.device_name() is None
        backend.synchronize()  # host no-op

    def test_chunk_bytes_policy(self):
        assert get_array_backend("numpy").chunk_bytes == 8 * 2**20
        # Accelerator backends amortize launch overhead with bigger chunks.
        from repro.utils.array_api import CupyBackend, TorchBackend

        assert TorchBackend.chunk_bytes == 64 * 2**20
        assert CupyBackend.chunk_bytes == 64 * 2**20

    def test_abstract_owns_raises(self):
        with pytest.raises(NotImplementedError):
            ArrayBackend(np).owns(np.zeros(1))
