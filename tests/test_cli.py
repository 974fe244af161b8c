"""Runner behavior: exit codes, artifact determinism, output content."""

import json

import pytest

from levyspde.cli import main
from levyspde.config import ConfigError, load_config, parse_config


def _write_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "model": "heat",
        "solver": {"dt": 0.01, "T": 0.2, "level": 4},
        "study": {"n_paths": 20, "p_list": [2.0], "m_list": [2, 4], "samples": 128},
        "master_seed": 11,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_model_exits_usage_error(tmp_path, capsys):
    path = _write_config(tmp_path, model="mystery")
    assert main(["check", "--config", str(path)]) == 1
    assert "model" in capsys.readouterr().err


def test_bad_schema_version_exits_usage_error(tmp_path, capsys):
    path = _write_config(tmp_path, schema_version=99)
    assert main(["check", "--config", str(path)]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_energy_rejects_single_path(tmp_path, capsys):
    path = _write_config(tmp_path, study={"n_paths": 1, "p_list": [2.0]})
    assert main(["energy", "--config", str(path)]) == 1
    assert "n_paths" in capsys.readouterr().err


def test_part2_p_outside_admissible_range(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        model="grad_noise_linear",
        study={"n_paths": 4, "p_list": [2.0, 500.0]},
    )
    assert main(["energy", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "p_list" in err and "admissible" in err


def test_solver_level_exceeding_cap(tmp_path):
    path = _write_config(tmp_path, solver={"dt": 0.01, "T": 0.2, "level": 1000})
    assert main(["check", "--config", str(path)]) == 1


def test_prange_prints_interval(tmp_path, capsys):
    path = _write_config(tmp_path, model="grad_noise_linear")
    assert main(["prange", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chi=1" in out and "admissible p in [2," in out
    body = (tmp_path / "out" / "prange.csv").read_text()
    assert body.startswith("# verifies:")
    assert "C1" in body.splitlines()[1]


def test_uniqueness_pass_and_artifacts(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["uniqueness", "--config", str(path)]) == 0
    assert "max sup-difference 0.000e+00" in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "uniqueness_meta.json").read_text())
    assert meta["pass"] is True and meta["study"] == "uniqueness"


def test_rerun_and_worker_counts_are_byte_identical(tmp_path):
    path = _write_config(tmp_path)
    bodies = []
    for args in (["--workers", "1"], ["--workers", "1"], ["--workers", "4"]):
        assert main(["energy", "--config", str(path), *args]) == 0
        bodies.append((tmp_path / "out" / "energy.csv").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]


def test_seed_override_changes_artifacts(tmp_path):
    path = _write_config(tmp_path)
    assert main(["energy", "--config", str(path), "--seed", "1"]) == 0
    first = (tmp_path / "out" / "energy.csv").read_bytes()
    assert main(["energy", "--config", str(path), "--seed", "2"]) == 0
    second = (tmp_path / "out" / "energy.csv").read_bytes()
    assert first != second


def test_json_format_artifact(tmp_path):
    path = _write_config(tmp_path)
    assert main(["uniqueness", "--config", str(path), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "out" / "uniqueness.csv").read_text())
    assert payload["verifies"].startswith("Theorem")


def test_simulate_writes_cadlag_columns(tmp_path):
    path = _write_config(tmp_path, solver={"dt": 0.01, "T": 1.0, "level": 3})
    assert main(["simulate", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[:2] == ["time", "is_jump_post"]
    assert "coeff_1" in header and "norm_H" in header and "norm_V" in header
    meta = json.loads((tmp_path / "out" / "path_meta.json").read_text())
    assert meta["model"] == "heat" and "created_at" in meta


def test_custom_model_config_via_cli(tmp_path):
    custom = {
        "name": "tiny",
        "regime": "part1",
        "triple": {"dimension_cap": 3},
        "drift": {"type": "diagonal", "scale": 1.0},
        "diffusion": {"type": "multiplicative_h", "c": 0.1},
        "jump": {"type": "zero"},
        "constants": {"beta": 2.0, "g_integral": 0.01, "L_A": 1.0, "C_growth": 1.0},
        "x0": [1.0, 0.5, 0.25],
    }
    path = _write_config(
        tmp_path, model=custom, study={"n_paths": 8, "samples": 64},
        solver={"dt": 0.01, "T": 0.2, "level": 3},
    )
    assert main(["check", "--config", str(path)]) == 0
    assert main(["uniqueness", "--config", str(path)]) == 0


def test_config_loader_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")
    with pytest.raises(ConfigError):
        parse_config({"schema_version": 1, "model": "heat", "solver": {"dt": 0.01}})
    with pytest.raises(ConfigError):
        parse_config({
            "schema_version": 1, "model": "heat",
            "solver": {"dt": 0.01, "T": 1.0, "level": 2},
            "master_seed": -4,
        })


def test_remaining_subcommands_smoke(tmp_path):
    # residual / stability / depend / converge / modulus / isometry all
    # produce anchored artifacts and pass on the default model
    path = _write_config(
        tmp_path,
        solver={"dt": 0.01, "T": 0.2, "level": 4},
        study={
            "n_paths": 30,
            "dt_levels": [0.02, 0.01, 0.005],
            "perturbations": [1e-1, 1e-2],
            "m_list": [2, 4],
            "delta_list": [0.02, 0.04],
        },
    )
    for cmd, artifact in (
        ("residual", "residual.csv"),
        ("stability", "stability.csv"),
        ("depend", "depend.csv"),
        ("converge", "converge.csv"),
        ("modulus", "modulus.csv"),
    ):
        assert main([cmd, "--config", str(path)]) == 0, cmd
        body = (tmp_path / "out" / artifact).read_text()
        assert body.startswith("# verifies:"), cmd

    # isometry enforces its own minimum ensemble size
    assert main(["isometry", "--config", str(path)]) == 1
    iso_path = _write_config(tmp_path, solver={"dt": 0.01, "T": 0.2, "level": 2},
                             study={"n_paths": 200})
    assert main(["isometry", "--config", str(iso_path)]) == 0
    assert (tmp_path / "out" / "isometry.csv").read_text().startswith("# verifies:")


def test_usage_error_exit_code():
    assert main(["not-a-command"]) == 1
    assert main(["check"]) == 1  # missing --config


def test_workers_env_var(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    monkeypatch.setenv("LEVYSPDE_WORKERS", "4")
    assert main(["energy", "--config", str(path)]) == 0
    env_body = (tmp_path / "out" / "energy.csv").read_bytes()
    monkeypatch.delenv("LEVYSPDE_WORKERS")
    assert main(["energy", "--config", str(path)]) == 0
    assert env_body == (tmp_path / "out" / "energy.csv").read_bytes()


def test_energy_warns_on_failing_audit(tmp_path, capsys):
    # misdeclared drift constant: the audit warning fires, the study runs
    custom = {
        "name": "lying",
        "regime": "part1",
        "triple": {"dimension_cap": 3},
        "drift": {"type": "diagonal", "scale": 0.2},
        "diffusion": {"type": "zero"},
        "jump": {"type": "zero"},
        "constants": {"beta": 2.0, "L_A": 1.0, "C_growth": 1.0},
    }
    path = _write_config(
        tmp_path, model=custom,
        solver={"dt": 0.01, "T": 0.2, "level": 3},
        study={"n_paths": 8, "p_list": [2.0]},
    )
    assert main(["energy", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "audit" in captured.err


def test_prange_c_tilde_override(tmp_path):
    path = _write_config(tmp_path, model="grad_noise_linear",
                         study={"c_tilde_base": 1e9})
    assert main(["prange", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "prange.csv").read_text().splitlines()
    header = lines[1].split(",")
    first = dict(zip(header, lines[2].split(",")))
    assert first["moment_ok"] == "false"  # an absurd imported constant fails the side condition


def test_check_detects_broken_model(tmp_path, capsys):
    # declaring a too-small coercivity margin makes the audit fail -> exit 2
    custom = {
        "name": "lying",
        "regime": "part1",
        "triple": {"dimension_cap": 3},
        "drift": {"type": "diagonal", "scale": 0.2},  # A = -0.2 w u
        "diffusion": {"type": "zero"},
        "jump": {"type": "zero"},
        "constants": {"beta": 2.0, "L_A": 1.0, "C_growth": 1.0},  # claims L_A = 1
    }
    path = _write_config(
        tmp_path, model=custom, study={"samples": 256},
        solver={"dt": 0.01, "T": 0.2, "level": 3},
    )
    assert main(["check", "--config", str(path)]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    ["simulate", "energy", "residual", "modulus", "stability", "converge", "uniqueness", "depend"],
)
def test_non_finite_initial_norm_fails(tmp_path, command):
    # ‖x0‖_H overflows to inf: every path is truncated and the study fails
    study = {"n_paths": 4, "p_list": [2.0], "m_list": [2, 4], "delta_list": [0.02, 0.04]}
    path = _write_config(tmp_path, x0=[1e308, 1e308], study=study)
    assert main([command, "--config", str(path)]) == 2
    if command == "simulate":
        body = (tmp_path / "out" / "path.csv").read_text()
        assert "inf" not in body and "nan" not in body


@pytest.mark.parametrize("perturbations", [[0.0, 0.0], [0.0, 1e-2]])
def test_depend_needs_two_positive_perturbations(tmp_path, capsys, perturbations):
    # the log-log slope is fitted through the positive entries only
    path = _write_config(tmp_path, study={"n_paths": 4, "perturbations": perturbations})
    assert main(["depend", "--config", str(path)]) == 1
    assert "study.perturbations" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, True])
def test_config_seed_outside_64_bits_rejected(tmp_path, capsys, seed):
    # the RNG folds seeds into 64 bits, so 2**64 + 5 would alias seed 5
    path = _write_config(tmp_path, master_seed=seed)
    assert main(["uniqueness", "--config", str(path)]) == 1
    assert "master_seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_override_outside_64_bits_rejected(tmp_path, capsys, seed):
    path = _write_config(tmp_path)
    assert main(["uniqueness", "--config", str(path), "--seed", seed]) == 1
    assert "--seed" in capsys.readouterr().err
    assert main(["uniqueness", "--config", str(path), "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize(
    "command, study, field",
    [
        ("energy", {"n_paths": 4, "m_list": [2, 1000]}, "study.m_list"),
        ("converge", {"n_paths": 4, "m_list": [2, 1000]}, "study.m_list"),
        ("modulus", {"n_paths": 4, "delta_list": [0.015, 0.04]}, "study.delta_list"),
        ("residual", {"n_paths": 4, "dt_levels": [0.01]}, "study.dt_levels"),
    ],
    ids=["energy", "converge", "modulus", "residual"],
)
def test_degenerate_study_input_names_its_field(tmp_path, capsys, command, study, field):
    # a level above the cap, an off-grid shift and a one-point slope fit
    path = _write_config(tmp_path, study=study)
    assert main([command, "--config", str(path)]) == 1
    assert field in capsys.readouterr().err


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("command, field", [("depend", "log_slope"), ("energy", "ratio_spread")])
def test_failing_study_sidecar_is_strict_json(tmp_path, command, field):
    study = {"n_paths": 4, "p_list": [2.0], "m_list": [2, 4]}
    path = _write_config(tmp_path, x0=[1e308, 1e308], study=study)
    assert main([command, "--config", str(path)]) == 2
    text = (tmp_path / "out" / f"{command}_meta.json").read_text()
    meta = json.loads(text, parse_constant=_reject_constant)
    assert meta["pass"] is False and meta[field] is None
