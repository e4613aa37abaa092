"""A width whose single register row exceeds the host's physical memory is
rejected when its config is built, on every path that builds one.

A statevector row takes ``16 * 2**n`` bytes and a noisy run's Pauli-vector
row ``16 * 4**n``; 40 qubits (16 TiB a row) fit no host, so without the
check these specs died allocating their first stack.  The tests pin the
host's memory at 1 GiB.
"""

import json
import urllib.error
import urllib.request

import pytest

import repro.utils.validation as validation
from repro.cli import main
from repro.core.spec import ExperimentSpec
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig
from repro.service import ExperimentServer, JobQueue, ResultStore


@pytest.fixture(autouse=True)
def _one_gib_host(monkeypatch):
    """Every test sees a host of 1 GiB, whatever runs it."""
    monkeypatch.setattr(validation, "host_memory_bytes", lambda: 2**30)


_DEPOLARIZING = {"default": {"name": "depolarizing", "probability": 0.01}}


def _assert_one_line_error(capsys, code, match):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert match in captured.err


class TestConfigs:
    def test_variance_width_names_width_row_and_memory(self):
        VarianceConfig(qubit_counts=(2, 25))  # a 512 MiB row fits 1 GiB
        with pytest.raises(ValueError) as excinfo:
            VarianceConfig(qubit_counts=(2, 27))
        assert str(excinfo.value) == (
            "27 qubits do not fit this host: one statevector row takes "
            "2.0 GiB, the host has 1.0 GiB of physical memory"
        )

    def test_noisy_rows_are_pauli_vectors(self):
        VarianceConfig(qubit_counts=(12,), noise=_DEPOLARIZING)  # 256 MiB
        with pytest.raises(ValueError, match="one Pauli-vector row takes 4.0 GiB"):
            VarianceConfig(qubit_counts=(14,), noise=_DEPOLARIZING)
        with pytest.raises(ValueError, match="14 qubits do not fit"):
            TrainingConfig(num_qubits=14, noise=_DEPOLARIZING)
        # A trivial model is the noiseless run: statevector rows.
        TrainingConfig(num_qubits=14, noise={"default": None})

    def test_training_width(self):
        with pytest.raises(ValueError, match="40 qubits do not fit this host"):
            TrainingConfig(num_qubits=40)


class TestCommandLine:
    def test_variance(self, capsys):
        code = main(["variance", "--qubits", "40", "--circuits", "1", "--layers", "1"])
        _assert_one_line_error(capsys, code, "40 qubits do not fit this host")

    def test_train(self, capsys):
        code = main(["train", "--qubits", "40", "--layers", "1", "--iterations", "1"])
        _assert_one_line_error(capsys, code, "40 qubits do not fit this host")

    def test_run(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {"kind": "variance", "config": {"qubit_counts": [40]}, "seed": 1}
            )
        )
        code = main(["run", str(path)])
        _assert_one_line_error(capsys, code, "40 qubits do not fit this host")


def _oversized_spec():
    spec = ExperimentSpec(
        kind="variance",
        config=VarianceConfig(qubit_counts=(2,), num_circuits=2, num_layers=1),
        seed=1,
    ).to_dict()
    spec["config"]["qubit_counts"] = [40]
    return spec


class TestService:
    def test_post_experiments_answers_400(self, tmp_path):
        with ExperimentServer(store=tmp_path / "store") as server:
            request = urllib.request.Request(
                f"{server.url}/experiments",
                data=json.dumps(_oversized_spec()).encode("utf-8"),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert "40 qubits do not fit this host" in error
            assert server.queue.jobs() == []

    def test_persisted_entry_warns_instead_of_restoring(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        JobQueue(store).state_path().write_text(
            json.dumps(
                {"jobs": [{"job_id": "job-000001", "spec": _oversized_spec()}]}
            ),
            encoding="utf-8",
        )
        queue = JobQueue(store)
        with pytest.warns(RuntimeWarning, match="40 qubits do not fit this host"):
            assert queue.restore_state() == 0
        assert queue.jobs() == []
