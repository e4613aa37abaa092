"""Fuzzing the JSON boundary: ``ExperimentSpec.from_dict`` and
``NoiseModel.from_dict`` turn any JSON-like payload into a spec, a model or
a ``ValueError`` — never a ``TypeError`` or another crash.  ``repro run``
and ``POST /experiments`` turn that ``ValueError`` into one error line.
"""

from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.noise import NoiseModel
from repro.core.spec import EXPERIMENT_KINDS, ExperimentSpec
from repro.core.training import expand_trajectories

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_SPEC_FIELDS = sorted(field.name for field in fields(ExperimentSpec))
_METHOD_NAMES = st.sampled_from(["random", "zeros", "Xavier_Normal", "nosuch"])
_METHODS = st.lists(_METHOD_NAMES | _SCALARS, max_size=3) | _JSON
_CONFIG_FIELDS = {
    kind: sorted(field.name for field in fields(config))
    for kind, config in EXPERIMENT_KINDS.items()
}
_CHANNEL = st.fixed_dictionaries(
    {"name": st.sampled_from(["depolarizing", "bit_flip", "nosuch"]) | _JSON},
    optional={"probability": _JSON, "gamma": _JSON},
)
_NOISE = st.dictionaries(
    st.sampled_from(["default", "per_gate", "readout_error"]),
    _CHANNEL | _JSON | st.dictionaries(st.sampled_from(["RX", "CZ"]), _CHANNEL | _JSON),
    max_size=3,
)


@st.composite
def _spec_payloads(draw):
    kind = draw(st.sampled_from(sorted(EXPERIMENT_KINDS)) | _JSON)
    payload = {"kind": kind}
    for name in draw(st.lists(st.sampled_from(_SPEC_FIELDS), unique=True, max_size=5)):
        if name == "noise":
            payload[name] = draw(_NOISE | _JSON)
        elif name == "methods":
            payload[name] = draw(_METHODS)
        elif name != "kind":
            payload[name] = draw(_JSON)
    if isinstance(kind, str) and kind in _CONFIG_FIELDS and draw(st.booleans()):
        payload["config"] = draw(
            st.dictionaries(st.sampled_from(_CONFIG_FIELDS[kind]), _JSON, max_size=4)
        )
    return payload


_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(_spec_payloads() | _JSON)
def test_spec_from_dict_raises_only_value_error(payload):
    try:
        ExperimentSpec.from_dict(payload)
    except ValueError:
        pass


@_SETTINGS
@given(_METHODS)
def test_accepted_methods_are_initializer_names(methods):
    """A training spec that accepts ``methods`` can name and key its
    trajectories; anything else is a ``ValueError`` naming the field."""
    try:
        spec = ExperimentSpec.from_dict({"kind": "training", "methods": methods})
    except ValueError as error:
        assert "methods" in str(error) or "unknown initializer" in str(error)
        return
    if spec.methods:
        labels, _ = expand_trajectories(spec.methods)
        assert all(isinstance(label, str) for label in labels)
    spec.fingerprint()


@_SETTINGS
@given(_NOISE | _JSON)
def test_noise_from_dict_raises_only_value_error(payload):
    try:
        NoiseModel.from_dict(payload)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "abc"),
        ("retry", "x"),
        ("noise", [1]),
        ("workers", [2]),
        ("fault_plan", 42),
        ("config", [1, 2]),
    ],
)
def test_wrongly_typed_field_is_named(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentSpec.from_dict({"kind": "variance", field: value})


def test_wrongly_typed_config_field_is_named():
    with pytest.raises(ValueError, match="num_circuits"):
        ExperimentSpec.from_dict({"kind": "variance", "config": {"num_circuits": "x"}})
