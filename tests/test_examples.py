"""Smoke tests: every example script runs end to end at tiny scale.

Examples are part of the public deliverable; these tests import each
script as a module and drive its ``main()`` with scaled-down CLI
arguments, so a refactor that breaks an example fails the suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_main(module, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["example"] + argv)
    module.main()


class TestExamplesRun:
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "initial cost" in out
        assert "trained" in out

    def test_variance_decay_analysis(self, capsys, monkeypatch, tmp_path):
        module = _load("variance_decay_analysis")
        target = tmp_path / "out.json"
        monkeypatch.setattr(
            sys,
            "argv",
            ["x", "--seed", "1", "--output", str(target)],
        )
        # Shrink the reduced config further by monkeypatching the default.
        from repro.core import VarianceConfig

        original = VarianceConfig

        def tiny(*args, **kwargs):
            kwargs.setdefault("qubit_counts", (2, 3))
            kwargs.setdefault("num_circuits", 4)
            kwargs.setdefault("num_layers", 3)
            return original(**kwargs)

        monkeypatch.setattr(module, "VarianceConfig", tiny)
        module.main()
        assert target.exists()
        assert "decay_rate" in capsys.readouterr().out

    def test_train_identity_qnn(self, capsys, monkeypatch):
        module = _load("train_identity_qnn")
        _run_main(
            module,
            [
                "--qubits", "2",
                "--layers", "1",
                "--iterations", "2",
                "--optimizers", "gradient_descent",
            ],
            monkeypatch,
        )
        assert "final_loss" in capsys.readouterr().out

    def test_landscape_visualization(self, capsys, monkeypatch):
        module = _load("landscape_visualization")
        _run_main(
            module,
            ["--qubits", "2", "--layers", "3", "--resolution", "7"],
            monkeypatch,
        )
        assert "cost range" in capsys.readouterr().out

    def test_mitigation_comparison(self, capsys, monkeypatch):
        module = _load("mitigation_comparison")
        _run_main(
            module,
            ["--qubits", "3", "--layers", "2", "--iterations", "4"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "identity_block" in out
        assert "layerwise" in out

    def test_qnn_classifier(self, capsys, monkeypatch):
        module = _load("qnn_classifier")
        _run_main(
            module,
            ["--qubits", "2", "--layers", "1", "--epochs", "2"],
            monkeypatch,
        )
        assert "test_acc" in capsys.readouterr().out

    def test_plateau_diagnostics(self, capsys, monkeypatch):
        module = _load("plateau_diagnostics")
        _run_main(
            module,
            [
                "--methods", "random", "zeros",
                "--qubits", "2", "3",
                "--layers", "4",
                "--circuits", "5",
            ],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "KL_from_Haar" in out

    def test_spec_driven_experiments(self, capsys, monkeypatch):
        module = _load("spec_driven_experiments")
        _run_main(
            module,
            [
                "--qubits", "2", "3",
                "--circuits", "4",
                "--layers", "3",
                "--workers", "1",
                "--seed", "1",
            ],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "bit-identical to single process: True" in out
        assert "spec round-trips" in out
        assert "first submission: state=done cache_hit=False" in out
        assert "second submission: state=done cache_hit=True" in out
        assert "served payloads byte-identical: True" in out

    def test_shot_based_training(self, capsys, monkeypatch):
        module = _load("shot_based_training")
        _run_main(
            module,
            [
                "--qubits", "2",
                "--layers", "1",
                "--iterations", "2",
                "--shots", "20",
                "--methods", "random", "zeros",
                "--sweep-shots", "10", "40",
                "--seed", "1",
            ],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "serial executor bit-identical to lockstep: True" in out
        assert "final losses vs shot budget" in out

    def test_reproduce_paper_arguments_parse(self, monkeypatch):
        module = _load("reproduce_paper")
        monkeypatch.setattr(sys, "argv", ["x", "--fast", "--seed", "7"])
        args = module.parse_args()
        assert args.fast
        assert args.seed == 7
