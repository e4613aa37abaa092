"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_variance_defaults(self):
        args = build_parser().parse_args(["variance"])
        assert args.qubits == [2, 4, 6]
        assert args.circuits == 50
        assert args.cost == "global"

    def test_train_defaults_match_paper(self):
        args = build_parser().parse_args(["train"])
        assert args.qubits == 10
        assert args.layers == 5
        assert args.iterations == 50
        assert args.learning_rate == pytest.approx(0.1)


class TestInfo:
    def test_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1" in out
        assert "xavier_normal" in out
        assert "adam" in out
        assert "CZ" in out

    def test_lists_executors(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "executors:" in out
        for name in ("serial", "batched", "process_pool"):
            assert name in out


class TestVarianceCommand:
    def test_tiny_run(self, capsys):
        code = main(
            [
                "variance",
                "--qubits", "2", "3",
                "--circuits", "5",
                "--layers", "4",
                "--methods", "random", "zeros",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decay_rate" in out
        assert "random" in out and "zeros" in out

    def test_one_width_prints_variances_without_a_fit(self, capsys):
        code = main(
            [
                "variance",
                "--qubits", "3",
                "--circuits", "4",
                "--layers", "3",
                "--methods", "random",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "q=3" in out
        assert "decay_rate" not in out
        assert "no decay fit: it needs at least two qubit counts" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "variance.json"
        code = main(
            [
                "variance",
                "--qubits", "2", "3",
                "--circuits", "4",
                "--layers", "3",
                "--methods", "random",
                "--output", str(target),
            ]
        )
        assert code == 0
        assert target.exists()
        from repro.io import load_result

        outcome = load_result(target)
        assert outcome.result.qubit_counts == [2, 3]


class TestTrainCommand:
    def test_tiny_run(self, capsys):
        code = main(
            [
                "train",
                "--qubits", "2",
                "--layers", "1",
                "--iterations", "2",
                "--methods", "zeros", "random",
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final_loss" in out
        assert "ranking" in out

    def test_adam_option(self, capsys):
        code = main(
            [
                "train",
                "--qubits", "2",
                "--layers", "1",
                "--iterations", "2",
                "--optimizer", "adam",
                "--methods", "zeros",
            ]
        )
        assert code == 0
        assert "adam" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, executor",
        [
            ([], "lockstep"),
            (["--shots", "16"], "serial"),
            (["--shots", "16", "--batch-trajectories"], "lockstep"),
            (["--workers", "2"], "process_pool"),
            (["--workers", "2", "--batch-trajectories"], "lockstep"),
        ],
    )
    def test_executor_choice(self, flags, executor):
        from repro.cli import _training_spec

        args = build_parser().parse_args(["train"] + flags)
        assert _training_spec(args).resolved_executor() == executor


class TestRunCommand:
    def _write_spec(self, tmp_path, **overrides):
        import json

        from repro.core import ExperimentSpec, VarianceConfig

        spec = ExperimentSpec(
            kind="variance",
            config=VarianceConfig(
                qubit_counts=(2, 3),
                num_circuits=4,
                num_layers=3,
                methods=("random",),
            ),
            seed=3,
            **overrides,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    def test_parses_spec_argument(self):
        args = build_parser().parse_args(["run", "spec.json", "--workers", "2"])
        assert args.spec == "spec.json"
        assert args.workers == 2

    def test_runs_spec_file(self, capsys, tmp_path):
        path = self._write_spec(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind=variance" in out
        assert "decay_rate" in out

    def test_workers_override_routes_to_process_pool(self, capsys, tmp_path):
        path = self._write_spec(tmp_path)
        assert main(["run", str(path), "--workers", "2"]) == 0
        assert "executor=process_pool workers=2" in capsys.readouterr().out

    def test_output_round_trips(self, capsys, tmp_path):
        from repro.io import load_result

        path = self._write_spec(tmp_path)
        target = tmp_path / "out.json"
        assert main(["run", str(path), "--output", str(target)]) == 0
        capsys.readouterr()
        outcome = load_result(target)
        assert outcome.result.qubit_counts == [2, 3]

    def test_sweep_spec(self, capsys, tmp_path):
        import json

        from repro.core import ExperimentSpec, VarianceConfig

        spec = ExperimentSpec(
            kind="sweep",
            config=VarianceConfig(
                qubit_counts=(2, 3),
                num_circuits=3,
                num_layers=2,
                methods=("random",),
            ),
            seed=1,
            sweep_field="num_layers",
            sweep_values=[2, 4],
        )
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep num_layers=2" in out
        assert "sweep num_layers=4" in out

    def test_sweep_with_output_fails_fast(self, capsys, tmp_path, monkeypatch):
        """--output on a sweep spec exits before any experiment runs."""
        import json

        import repro.core.variance as vmod
        from repro.core import ExperimentSpec, VarianceConfig

        calls = []
        original = vmod.run_variance_shard

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", counting)
        spec = ExperimentSpec(
            kind="sweep",
            config=VarianceConfig(
                qubit_counts=(2, 3), num_circuits=3, num_layers=2,
                methods=("random",),
            ),
            seed=1,
            sweep_field="num_layers",
            sweep_values=[2, 4],
        )
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_dict()))
        code = main(["run", str(path), "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert calls == []
        assert "not supported for sweep" in capsys.readouterr().err

    def test_train_checkpoint_dir_flag(self, capsys, tmp_path):
        target = tmp_path / "ck"
        code = main(
            [
                "train",
                "--qubits", "2",
                "--layers", "1",
                "--iterations", "2",
                "--methods", "zeros",
                "--checkpoint-dir", str(target),
            ]
        )
        assert code == 0
        assert len(list(target.glob("shard-*.json"))) == 1
        capsys.readouterr()

    def test_variance_workers_flag(self, capsys):
        code = main(
            [
                "variance",
                "--qubits", "2", "3",
                "--circuits", "3",
                "--layers", "2",
                "--methods", "random",
                "--seed", "1",
                "--workers", "1",
            ]
        )
        assert code == 0
        assert "decay_rate" in capsys.readouterr().out


class TestInputErrors:
    """Input rejected while building a config or spec is one ``error:``
    line on stderr with exit code 2; nothing runs."""

    def _assert_one_line_error(self, capsys, code, match):
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert match in captured.err
        assert "Traceback" not in captured.err

    def test_variance_zero_circuits(self, capsys):
        code = main(["variance", "--circuits", "0"])
        self._assert_one_line_error(capsys, code, "num_circuits")

    def test_variance_unknown_method(self, capsys):
        code = main(["variance", "--methods", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown initializer 'nosuch'")

    def test_variance_repeated_qubit_counts(self, capsys):
        code = main(["variance", "--qubits", "3", "3"])
        self._assert_one_line_error(capsys, code, "must not repeat a count")

    def test_train_unknown_method(self, capsys, monkeypatch):
        import repro.core.training as training_module

        def unreachable(*args, **kwargs):
            raise AssertionError("a training unit ran")

        monkeypatch.setattr(
            training_module, "run_lockstep_training_unit", unreachable
        )
        code = main(["train", "--methods", "random", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown initializer 'nosuch'")

    def test_train_unknown_optimizer(self, capsys):
        code = main(["train", "--optimizer", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown optimizer 'nosuch'")

    @pytest.mark.parametrize("methods", ["[1]", '"random"'])
    def test_run_methods_not_a_list_of_names(self, capsys, tmp_path, methods):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "training", "methods": %s}' % methods)
        code = main(["run", str(path)])
        self._assert_one_line_error(capsys, code, "methods must be a list")

    @pytest.mark.parametrize(
        "body",
        [
            '{"kind": "training", "methods": ["random", "Random"]}',
            '{"kind": "variance", "config": {"methods": ["xavier", "xavier_normal"]}}',
        ],
        ids=["training", "variance"],
    )
    def test_run_method_named_twice(self, capsys, tmp_path, body):
        path = tmp_path / "spec.json"
        path.write_text(body)
        code = main(["run", str(path)])
        self._assert_one_line_error(capsys, code, "methods names initializer")

    def test_run_unknown_spec_field(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "training", "sede": 1}')
        code = main(["run", str(path)])
        self._assert_one_line_error(capsys, code, "unknown spec field(s) ['sede']")

    def test_run_unknown_config_field(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "training", "config": {"num_qubit": 2}}')
        code = main(["run", str(path)])
        self._assert_one_line_error(
            capsys, code, "unknown TrainingConfig field(s) ['num_qubit']"
        )

    def test_run_bad_override(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "training"}')
        code = main(["run", str(path), "--shots", "0"])
        self._assert_one_line_error(capsys, code, "shots")

    def test_run_unknown_executor(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "training"}')
        code = main(["run", str(path), "--executor", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown executor 'nosuch'")

    def test_variance_unknown_backend(self, capsys):
        code = main(["variance", "--backend", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown array backend 'nosuch'")

    def test_train_unknown_backend(self, capsys):
        code = main(["train", "--backend", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown array backend 'nosuch'")

    def test_run_unknown_backend(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "training"}')
        code = main(["run", str(path), "--backend", "nosuch"])
        self._assert_one_line_error(capsys, code, "unknown array backend 'nosuch'")

    def test_serve_unknown_executor_exits_before_binding(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.service.server as server_module

        def unreachable(*args, **kwargs):
            raise AssertionError("repro serve bound a port")

        monkeypatch.setattr(server_module, "_ServiceHTTPServer", unreachable)
        code = main(
            [
                "serve",
                "--port", "0",
                "--store", str(tmp_path / "store"),
                "--executor", "nosuch",
            ]
        )
        self._assert_one_line_error(capsys, code, "unknown executor 'nosuch'")

    @pytest.mark.parametrize(
        "name, match",
        [("missing.json", "No such file or directory"), ("", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_run_unreadable_spec_path(self, capsys, tmp_path, name, match):
        code = main(["run", str(tmp_path / name)])
        self._assert_one_line_error(capsys, code, match)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ('"config": {"num_circuits": "x"}', "num_circuits must be an int"),
            ('"seed": "abc"', "cannot decode seed payload 'abc'"),
            ('"retry": "x"', "cannot build a RetryPolicy from str"),
            ('"noise": [1]', "noise payload must be a dict, got list"),
            (
                '"fault_plan": {"units": {"#0": [{"kind": "kill", "times": null}]}}',
                "fault 'times' must be a number, got None",
            ),
        ],
        ids=["num_circuits", "seed", "retry", "noise", "fault_times"],
    )
    def test_run_spec_field_type_errors(self, capsys, tmp_path, payload, match):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "variance", %s}' % payload)
        code = main(["run", str(path)])
        self._assert_one_line_error(capsys, code, match)

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--qubits", "0"], "num_qubits must be positive"),
            (["--layers", "0"], "num_layers must be positive"),
            (["--resolution", "0"], "resolution must be >= 2, got 0"),
            (["--resolution", "1"], "resolution must be >= 2, got 1"),
        ],
    )
    def test_landscape_bad_grid(self, capsys, flags, match):
        code = main(["landscape", *flags])
        self._assert_one_line_error(capsys, code, match)

    @pytest.mark.parametrize(
        "subcommand", [["stats"], ["gc", "--max-bytes", "1"]], ids=["stats", "gc"]
    )
    def test_store_missing_directory(self, capsys, tmp_path, subcommand):
        missing = tmp_path / "missing"
        code = main(["store", *subcommand, "--store", str(missing)])
        self._assert_one_line_error(capsys, code, "no result store at")
        assert not missing.exists()

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["worker", "--connect", "http://127.0.0.1:1"], "invalid choice: 'worker'"),
            (["serve", "--lease-ttl", "3"], "unrecognized arguments: --lease-ttl"),
        ],
        ids=["worker", "lease_ttl"],
    )
    def test_retired_remote_worker_options(self, capsys, argv, match):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan, match",
        [
            (
                '{"units": {"#0": [{"kind": "drop_lease"}]}}',
                "REPRO_FAULT_PLAN: unknown fault kind 'drop_lease'",
            ),
            (
                '{"units": {"#0": [{"kind": "nosuch"}]}}',
                "REPRO_FAULT_PLAN: unknown fault kind 'nosuch'",
            ),
            (
                '{"units": {"#0": [{"kind": "kill", "times": null}]}}',
                "REPRO_FAULT_PLAN: fault 'times' must be a number, got None",
            ),
        ],
        ids=["drop_lease", "nosuch", "times_null"],
    )
    @pytest.mark.parametrize("command", ["variance", "train", "run", "serve"])
    def test_env_fault_plan_checked_before_work(
        self, capsys, tmp_path, monkeypatch, plan, match, command
    ):
        import repro.service.server as server_module

        def unreachable(*args, **kwargs):
            raise AssertionError("repro serve bound a port")

        monkeypatch.setattr(server_module, "_ServiceHTTPServer", unreachable)
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"kind": "training", "config": '
            '{"num_qubits": 2, "num_layers": 1, "iterations": 1}}'
        )
        store = tmp_path / "store"
        argv = {
            "variance": ["variance", "--qubits", "2", "--circuits", "2"],
            "train": ["train", "--qubits", "2", "--iterations", "1"],
            "run": ["run", str(spec)],
            "serve": ["serve", "--port", "0", "--store", str(store)],
        }[command]
        code = main(argv)
        self._assert_one_line_error(capsys, code, match)
        assert not store.exists()

    def test_execution_errors_keep_their_traceback(self, monkeypatch):
        import repro.core.variance as vmod

        def failing(*args, **kwargs):
            raise ValueError("failed inside a unit")

        monkeypatch.setattr(vmod, "run_variance_shard", failing)
        with pytest.raises(ValueError, match="failed inside a unit"):
            main(
                [
                    "variance",
                    "--qubits", "2",
                    "--circuits", "2",
                    "--layers", "2",
                    "--methods", "random",
                ]
            )


class TestLandscapeCommand:
    def test_prints_map_and_metrics(self, capsys):
        code = main(
            [
                "landscape",
                "--qubits", "2",
                "--layers", "3",
                "--resolution", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost range" in out
        # 7 ascii rows follow the metrics line.
        assert len(out.strip().splitlines()) == 8


class TestVarianceFoldOption:
    """Variance runs have one execution path: the retired ``--fold`` and
    ``--sequential`` flags fail in argparse with exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [["--sequential"], ["--fold", "shape"], ["--fold", "structure"]],
        ids=["sequential", "fold-shape", "fold-structure"],
    )
    def test_retired_flags_exit_2(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["variance", "--qubits", "2", "--circuits", "1", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv)}" in err

    def test_rejects_unknown_fold(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["variance", "--fold", "mega"])
        assert excinfo.value.code == 2
