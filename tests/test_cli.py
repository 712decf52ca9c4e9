import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import spinctrl
from scale_cases import LARGE_BUT_FINITE, PHASE_OVERFLOW, SCALE_OVERFLOW, flags
from spinctrl.cli import _RUN_ONLY, ExperimentConfig, build_parser, config_from_args, main
from spinctrl.model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    bloch_trajectories,
    propagate,
    target_unitary,
)
from spinctrl.objective import ObjectiveConfig, fidelity, penalty
from spinctrl.optimizer import OptimizerConfig, optimize_controls


def tiny_run_args(out_dir, **overrides):
    flags = {
        "target": "not3",
        "n-pulses": "6",
        "restarts": "1",
        "seed": "11",
        "output-dir": str(out_dir),
    }
    flags.update({k.replace("_", "-"): str(v) for k, v in overrides.items()})
    args = ["run"]
    for key, value in flags.items():
        args += [f"--{key}", value]
    return args


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path):
        assert main(tiny_run_args(tmp_path)) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert list(result) == [
            "config", "fidelity", "penalty", "G", "iterations_used", "restart_index", "pulses",
            "converged", "line_search_failed", "evaluations",
        ]
        assert isinstance(result["converged"], bool)
        assert isinstance(result["line_search_failed"], bool)
        assert result["config"]["target"] == "not3"
        assert result["config"]["n_pulses"] == 6
        assert len(result["pulses"]["hx"]) == 6
        assert (tmp_path / "pulses.csv").exists()
        assert (tmp_path / "trajectories.csv").exists()

    def test_csv_roundtrip_reproduces_metrics(self, tmp_path):
        assert main(tiny_run_args(tmp_path)) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        header, rows = read_csv(tmp_path / "pulses.csv")
        assert header == ["index", "t_start", "hx", "hy"]
        hx = np.array([float(r[2]) for r in rows])
        hy = np.array([float(r[3]) for r in rows])
        cfg = result["config"]
        seq = ControlSequence(hx=hx, hy=hy, dt=cfg["dt"], bound=cfg["bound"])
        spec = ChainSpec(n_sites=3, gamma=cfg["gamma"])
        u = propagate(spec, seq)
        f = fidelity(target_unitary(TargetGate("NOT", 3)), u)
        assert abs(f - result["fidelity"]) < 1e-12
        assert abs(penalty(seq) - result["penalty"]) < 1e-12

    def test_output_files_round_trip_exactly(self, tmp_path):
        args = tiny_run_args(tmp_path)
        assert main(args) == 0
        cfg = config_from_args(build_parser().parse_args(args))
        result = optimize_controls(
            cfg.chain(), cfg.gate(), cfg.seq_template(), cfg.objective_config(),
            cfg.optimizer_config(),
        )
        seq = result.best_seq
        bloch = bloch_trajectories(cfg.chain(), seq, cfg.initial_state)

        def assert_same_bits(parsed, expected):
            # compared as bit patterns, so that -0.0 differs from 0.0
            parsed = np.asarray(parsed, dtype=float)
            expected = np.asarray(expected, dtype=float)
            assert parsed.shape == expected.shape
            assert np.array_equal(parsed.view(np.uint64), expected.view(np.uint64))

        saved = json.loads((tmp_path / "result.json").read_text())
        assert_same_bits(
            [saved["fidelity"], saved["penalty"], saved["G"]],
            [result.fidelity, result.penalty, result.G],
        )
        assert_same_bits(saved["pulses"]["hx"], seq.hx)
        assert_same_bits(saved["pulses"]["hy"], seq.hy)
        _, rows = read_csv(tmp_path / "pulses.csv")
        assert_same_bits([[float(r[2]), float(r[3])] for r in rows], np.stack([seq.hx, seq.hy], 1))
        _, rows = read_csv(tmp_path / "trajectories.csv")
        assert_same_bits([[float(c) for c in r[2:]] for r in rows], bloch.reshape(-1, 3))
        assert_same_bits(
            [float(r[0]) for r in rows],
            [j * cfg.dt for j in range(seq.n + 1) for _ in range(cfg.chain().n_sites)],
        )

    def test_trajectory_rows(self, tmp_path):
        assert main(tiny_run_args(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "trajectories.csv")
        assert header == ["t", "qubit", "bx", "by", "bz"]
        # (n+1) boundaries x 3 qubits
        assert len(rows) == 7 * 3
        # initial state defaults to |000>: every qubit starts at (0,0,1)
        for row in rows[:3]:
            assert float(row[0]) == 0.0
            assert np.allclose([float(row[2]), float(row[3]), float(row[4])], [0, 0, 1], atol=1e-12)

    def test_deterministic_result_bytes(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(tiny_run_args(dir_a)) == 0
        assert main(tiny_run_args(dir_b)) == 0
        assert (dir_a / "result.json").read_bytes() == (dir_b / "result.json").read_bytes()

    @pytest.mark.parametrize(
        "flags,config",
        [
            pytest.param({"mu": "1.5"}, None, id="mu_1.5"),
            pytest.param({"dt": "nan"}, None, id="dt_nan"),
            pytest.param({"bound": "inf"}, None, id="bound_inf"),
            pytest.param({"gamma": "nan"}, None, id="gamma_nan"),
            pytest.param({"kt": "nan"}, None, id="kt_nan"),
            pytest.param({"min_fidelity": "nan"}, None, id="min_fidelity_nan"),
            pytest.param({"min_fidelity": "5"}, None, id="min_fidelity_5"),
            pytest.param({"min_fidelity": "-0.1"}, None, id="min_fidelity_-0.1"),
            pytest.param({"seed": "-1"}, None, id="seed_negative"),
            pytest.param(None, {"n_pulses": "abc"}, id="file_n_pulses_abc"),
            pytest.param(None, {"dt": None}, id="file_dt_null"),
            pytest.param(None, {"target": ["not3"]}, id="file_target_list"),
            pytest.param(None, {"n_pulses": 6.9, "restarts": 1}, id="file_n_pulses_6.9"),
            pytest.param(None, {"seed": 2.5, "n_pulses": 2, "restarts": 1}, id="file_seed_2.5"),
            pytest.param(None, {"restarts": True, "n_pulses": 2}, id="file_restarts_true"),
            pytest.param(None, {"dt": True, "n_pulses": 2, "restarts": 1}, id="file_dt_true"),
            pytest.param(
                None,
                {"n_pulses": "1_0", "dt": " 0.2 ", "restarts": "1", "seed": "7"},
                id="file_numeric_strings",
            ),
        ],
    )
    def test_invalid_config_exits_2_without_files(self, tmp_path, flags, config):
        out = tmp_path / "out"
        if config is None:
            args = tiny_run_args(out, **flags)
        else:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"target": "not3", **config}))
            args = ["run", "--config", str(cfg_file), "--output-dir", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_null_output_dir_in_config_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"target": "not3", "n_pulses": 2, "output_dir": None}))
        assert main(["run", "--config", str(cfg_file), "--restarts", "1"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_output_dir_naming_a_file_exits_2(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("keep\n")
        assert main(tiny_run_args(target, n_pulses="2")) == 2
        assert target.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_malformed_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(tiny_run_args(tmp_path, mu="abc"))
        assert exc.value.code == 2

    def test_unknown_target_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--target", "toffoli3", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_min_fidelity_gate_exits_3(self, tmp_path):
        # a single weak slice cannot realize NOT on three qubits
        code = main(tiny_run_args(tmp_path, **{"n_pulses": "1", "min_fidelity": "0.999"}))
        assert code == 3
        assert (tmp_path / "result.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"target": "not3", "n_pulses": 6, "seed": 3, "mu": 0.5}))
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_file), "--seed", "4", "--restarts", "1",
             "--output-dir", str(out)]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["mu"] == 0.5  # from file
        assert result["config"]["seed"] == 4  # flag wins
        assert result["config"]["n_pulses"] == 6

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"target": "not3", "pulse_count": 6}))
        assert main(["run", "--config", str(cfg_file)]) == 2

    def test_initial_state_validation(self, tmp_path):
        out = tmp_path / "out"
        for label in ("01", " 000 "):
            assert main(tiny_run_args(out, initial_state=label)) == 2
            assert not out.exists()

    def test_penalty_drops_with_sparsity_weight(self, tmp_path):
        # paired runs: without the penalty term (mu=1) the pulses stay large
        results = {}
        for mu in ("1.0", "0.2"):
            out = tmp_path / f"mu{mu}"
            assert main(tiny_run_args(out, n_pulses="16", seed="0", mu=mu)) == 0
            results[mu] = json.loads((out / "result.json").read_text())["penalty"]
        assert results["0.2"] < results["1.0"]

    def test_target_derived_defaults(self):
        parser = build_parser()
        for target, n_expected, mu_expected, state in (
            ("not3", 64, 0.2, "000"),
            ("swap3", 64, 0.2, "000"),
            ("not4", 256, 0.4, "0010"),
            ("swap4", 256, 0.4, "0010"),
        ):
            cfg = config_from_args(parser.parse_args(["run", "--target", target]))
            assert cfg.n_pulses == n_expected
            assert cfg.mu == mu_expected
            assert cfg.dt == 0.2
            assert cfg.initial_state == state


class TestRobustnessCommand:
    def test_mu_one_rejected(self, tmp_path):
        out = tmp_path / "out"
        code = main(["robustness", "--target", "not3", "--mu", "1.0", "--output-dir", str(out)])
        assert code == 2
        assert not out.exists()

    def test_gamma_checked_only_where_the_environment_is_built(self, tmp_path):
        # with gamma = 1e308 only the environment qubit's phases overflow:
        # run never builds that chain, robustness rejects it before writing
        args = ["--target", "not3", "--gamma", "1e308", "--n-pulses", "2", "--restarts", "1"]
        assert main(["run", *args, "--output-dir", str(tmp_path / "run")]) == 0
        out = tmp_path / "robustness"
        assert main(["robustness", *args, "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_gamma_zero_decouples(self, tmp_path):
        code = main(
            ["robustness", "--target", "not3", "--n-pulses", "6", "--restarts", "1",
             "--seed", "2", "--gamma", "0", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "robustness.json").read_text())
        assert abs(report["dist_env_mu1"] - report["dist_no_env_mu1"]) < 1e-9
        assert abs(report["dist_env_muL"] - report["dist_no_env_muL"]) < 1e-9
        for key in ("dist_no_env_mu1", "dist_no_env_muL", "dist_env_mu1", "dist_env_muL"):
            assert 0.0 <= report[key] <= 2.0
        assert report["mu_used"] == report["config"]["mu"]


@pytest.mark.parametrize(
    "command, outputs",
    [("run", ["result.json", "pulses.csv", "trajectories.csv"]), ("robustness", ["robustness.json"])],
    ids=["run", "robustness"],
)
def test_bound_below_half_runs(tmp_path, command, outputs):
    # restarts start from pulses in +-min(0.5, bound), so a bound of 0.3 is usable
    code = main(
        [command, "--target", "not3", "--n-pulses", "8", "--restarts", "1",
         "--bound", "0.3", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    if command == "run":
        pulses = json.loads((tmp_path / "result.json").read_text())["pulses"]
        assert max(abs(h) for h in pulses["hx"] + pulses["hy"]) <= 0.3


@pytest.mark.parametrize(
    "command, taken", [("run", "trajectories.csv"), ("robustness", "robustness.json")],
    ids=["run", "robustness"],
)
def test_output_file_held_by_a_directory_exits_2_without_files(tmp_path, command, taken):
    # checked before any work, so no other output file is left behind
    (tmp_path / taken).mkdir()
    code = main(
        [command, "--target", "not3", "--n-pulses", "2", "--restarts", "1",
         "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    assert not any((tmp_path / taken).iterdir())


@pytest.mark.parametrize("command", ["run", "robustness"])
def test_config_file_not_utf8_exits_2_without_files(tmp_path, command, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    code = main([command, "--target", "not3", "--config", str(cfg_file), "--output-dir", str(out)])
    assert code == 2
    assert "config file" in capsys.readouterr().err
    assert not out.exists()


NUMERIC_FIELDS = [f.name for f in fields(ExperimentConfig) if f.metadata["kind"] in (int, float)]


# (command, field, value, surrogate): the flag under test, on the default
# surrogate unless one is named.
NON_FINITE_CASES = [
    (command, name, value)
    for command, name in [("run", name) for name in NUMERIC_FIELDS]
    + [("robustness", name) for name in NUMERIC_FIELDS if name not in _RUN_ONLY]
    for value in ("nan", "inf", "-inf")
] + [
    (command, *case)
    for command in ("run", "robustness")
    for case in PHASE_OVERFLOW + SCALE_OVERFLOW
]


@pytest.mark.parametrize(
    "case", NON_FINITE_CASES, ids=["-".join(case) for case in NON_FINITE_CASES]
)
def test_non_finite_numeric_flag_exits_2_without_files(tmp_path, case):
    command, *flag = case
    out = tmp_path / "out"
    # The flag under test comes last, so it overrides the small run size.
    args = [command, "--target", "not3", "--n-pulses", "2", "--restarts", "1",
            "--output-dir", str(out), *flags(flag)]
    try:
        code = main(args)
    except SystemExit as e:  # argparse rejects a non-integer count itself
        code = e.code
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("problem", ["missing_file", "json_list", "no_target"])
def test_config_source_problem_exits_2_without_files(tmp_path, problem, capsys):
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    if problem == "json_list":
        cfg_file.write_text(json.dumps(["target", "not3"]))
    args = ["run", "--output-dir", str(out)]
    if problem != "no_target":
        args += ["--config", str(cfg_file)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_shared_defaults_are_the_library_defaults():
    # surrogate, alpha, kT, gamma, seed and restarts default to the values of
    # the library's config classes
    cfg = ExperimentConfig(target="not3")
    assert cfg.objective_config() == ObjectiveConfig(mu=cfg.mu)
    assert cfg.chain() == ChainSpec(n_sites=3)
    assert cfg.optimizer_config() == OptimizerConfig()


class TestEntryPoint:
    def test_imports_without_test_dependencies(self):
        # numpy is the only runtime dependency: importing the package and its
        # CLI loads none of the test-only packages
        code = ("import sys, spinctrl, spinctrl.cli; "
                "print(sorted({m.partition('.')[0] for m in sys.modules} "
                "& {'scipy', 'hypothesis', 'mpmath'}))")
        src = str(Path(spinctrl.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinctrl.cli", "--help"],
            capture_output=True,
            text=True,
        )
        # argparse prints usage on --help and exits 0
        assert proc.returncode == 0
        assert "spinctrl" in proc.stdout


@pytest.mark.parametrize("case", list(LARGE_BUT_FINITE.values()), ids=list(LARGE_BUT_FINITE))
def test_large_but_finite_gradient_scale_runs(tmp_path, case):
    # 2 * n_pulses * (dt + 1/(n_pulses * min(bound, 1)))^2, bound / (2 * kT) and
    # 2 * kT are finite here, so the scale checks admit these runs, and they
    # finish without an overflow warning.
    code = main(["run", "--target", "not3", "--n-pulses", "4", "--restarts", "1",
                 "--output-dir", str(tmp_path), *flags(case)])
    assert code == 0
    assert (tmp_path / "result.json").exists()
