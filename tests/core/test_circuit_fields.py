"""A spec's circuit-shape fields are checked when its config is built.

``gate_pool`` and ``rotation_gates`` must name 1-qubit parametric gates,
``entanglement`` a pattern, ``entangler`` a fixed 2-qubit gate,
``cost_kind`` a cost and ``gradient_engine`` an engine.  A bad value is one
``ValueError`` naming the field, so ``repro run`` prints one ``error:``
line and exits 2, ``POST /experiments`` answers 400 and a persisted queue
entry warns instead of restoring, before anything runs.  Gate names are
stored upper-case, so spellings of one circuit share a fingerprint.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.spec import ExperimentSpec
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig
from repro.service import ExperimentServer, JobQueue, ResultStore

#: ``(kind, config field, bad value, text the error must contain)``.
_BAD_FIELDS = [
    ("variance", "gate_pool", ["CNOT"], "gate_pool entries must be 1-qubit"),
    ("variance", "gate_pool", [], "gate_pool must be a non-empty list"),
    ("variance", "gate_pool", "RX", "gate_pool must be a non-empty list"),
    ("variance", "gate_pool", ["RX", "nosuch"], "gate_pool: unknown gate 'nosuch'"),
    ("variance", "entanglement", "nosuch", "entanglement must be one of"),
    ("variance", "entangler", "nosuch", "entangler: unknown gate 'nosuch'"),
    ("variance", "entangler", "RX", "entangler must be a fixed 2-qubit gate"),
    ("variance", "cost_kind", "nosuch", "cost_kind must be one of"),
    ("training", "rotation_gates", ["CNOT"], "rotation_gates entries must be 1-qubit"),
    ("training", "rotation_gates", [None], "rotation_gates must name gates"),
    ("training", "entanglement", "nosuch", "entanglement must be one of"),
    ("training", "entangler", "nosuch", "entangler: unknown gate 'nosuch'"),
    ("training", "cost_kind", "nosuch", "cost_kind must be one of"),
    ("training", "gradient_engine", "nosuch", "gradient_engine must be one of"),
]
_IDS = [f"{kind}-{field}-{value}" for kind, field, value, _ in _BAD_FIELDS]
_CONFIGS = {"variance": VarianceConfig, "training": TrainingConfig}


def _body(kind, field, value):
    return {"kind": kind, "seed": 1, "config": {field: value}}


@pytest.mark.parametrize("kind, field, value, match", _BAD_FIELDS, ids=_IDS)
def test_config_rejects_field(kind, field, value, match):
    with pytest.raises(ValueError, match=match):
        _CONFIGS[kind](**{field: value})


@pytest.mark.parametrize("kind, field, value, match", _BAD_FIELDS, ids=_IDS)
def test_run_prints_one_error_line(capsys, tmp_path, kind, field, value, match):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_body(kind, field, value)))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert match in captured.err


@pytest.mark.parametrize(
    "kind, field, value, match",
    [_BAD_FIELDS[0], _BAD_FIELDS[5], _BAD_FIELDS[-1]],
    ids=[_IDS[0], _IDS[5], _IDS[-1]],
)
def test_post_experiments_answers_400(tmp_path, kind, field, value, match):
    with ExperimentServer(store=tmp_path / "store") as server:
        request = urllib.request.Request(
            f"{server.url}/experiments",
            data=json.dumps(_body(kind, field, value)).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert match in json.loads(excinfo.value.read())["error"]
        assert server.queue.jobs() == []


def test_persisted_entry_warns_instead_of_restoring(tmp_path):
    store = ResultStore(tmp_path / "store")
    JobQueue(store).state_path().write_text(
        json.dumps(
            {
                "jobs": [
                    {"job_id": "job-000001", "spec": _body("variance", "entangler", "nosuch")},
                ]
            }
        ),
        encoding="utf-8",
    )
    queue = JobQueue(store)
    with pytest.warns(RuntimeWarning, match="entangler: unknown gate 'nosuch'"):
        assert queue.restore_state() == 0
    assert queue.jobs() == []


class TestSpellings:
    def test_gate_names_stored_upper_case(self):
        config = VarianceConfig(gate_pool=["rx", "RY"], entangler="cz")
        assert config.gate_pool == ("RX", "RY")
        assert config.entangler == "CZ"
        config = TrainingConfig(rotation_gates=["ry"], entangler="cnot")
        assert config.rotation_gates == ("RY",)
        assert config.entangler == "CNOT"

    def test_repeated_pool_name_stays_legal(self):
        assert VarianceConfig(gate_pool=["RX", "rx", "RZ"]).gate_pool == ("RX", "RX", "RZ")

    @pytest.mark.parametrize(
        "kind, spelled, canonical",
        [
            ("variance", {"gate_pool": ["rx", "RY"]}, {"gate_pool": ["RX", "RY"]}),
            ("variance", {"entangler": "cz"}, {"entangler": "CZ"}),
            ("training", {"rotation_gates": ["Rx", "ry"]}, {"rotation_gates": ["RX", "RY"]}),
        ],
    )
    def test_spellings_share_a_fingerprint(self, kind, spelled, canonical):
        def fingerprint(config):
            return ExperimentSpec.from_dict(
                {"kind": kind, "seed": 1, "config": config}
            ).fingerprint()

        assert fingerprint(spelled) == fingerprint(canonical)
