"""Runner behavior: exit codes, artifact determinism, output content."""

import json
import math
import multiprocessing
import os

import pytest

from levyspde import parallel
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


def _custom_model(constants):
    """A custom model record with the given hypothesis constants."""
    return {
        "name": "custom",
        "triple": {"dimension_cap": 8},
        "diffusion": {"type": "multiplicative_h", "c": 0.1},
        "constants": {"beta": 2.0, "L_A": 1.0, "C_growth": 1.0, **constants},
    }


@pytest.mark.parametrize(
    "model",
    ["mystery", _custom_model({"f_profile": 1.0}), _custom_model({"g_profile": 1.0})],
    ids=["unknown-builtin", "f_profile-constant", "g_profile-constant"],
)
def test_unknown_model_exits_usage_error(tmp_path, capsys, model):
    # a constant the hypothesis system does not declare is a config error
    path = _write_config(tmp_path, model=model)
    assert main(["check", "--config", str(path)]) == 1
    assert "config field 'model'" in capsys.readouterr().err


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


def test_rerun_and_worker_counts_are_byte_identical(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    bodies = []
    for args in (["--workers", "1"], ["--workers", "1"], ["--workers", "4"]):
        assert main(["energy", "--config", str(path), *args]) == 0
        bodies.append((tmp_path / "out" / "energy.csv").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]

    # the other ensemble studies, at 2 workers and in batches of one path too;
    # 10 paths make one full batch of STUDY_BATCH and a short one
    study = {"n_paths": 10, "m_list": [2, 4], "dt_levels": [0.02, 0.01],
             "delta_list": [0.02, 0.04]}
    # allen_cahn replays its residual steps through the batched Newton; at
    # this size its refinement slope (0.67) misses the window, so it exits 2
    for command, extra, artifact, model, code in (
        ("residual", {}, "residual.csv", "heat", 0),
        ("residual", {}, "residual.csv", "allen_cahn", 2),
        ("modulus", {}, "modulus.csv", "heat", 0),
        ("converge", {}, "converge.csv", "heat", 0),
        ("uniqueness", {}, "uniqueness.csv", "heat", 0),
        ("uniqueness", {"stress": True}, "uniqueness.csv", "heat", 0),
    ):
        path = _write_config(tmp_path, model=model, study={**study, **extra})
        bodies = []
        for workers, batch in (("1", 8), ("1", 8), ("2", 8), ("1", 1), ("2", 1)):
            monkeypatch.setattr(parallel, "STUDY_BATCH", batch)
            assert main([command, "--config", str(path), "--workers", workers]) == code, command
            bodies.append((tmp_path / "out" / artifact).read_bytes())
        assert len(set(bodies)) == 1, (command, extra, model)


def _worker_mask(ctx, i):
    return i, sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_fork_workers_start_on_distinct_cpus_without_a_pin(monkeypatch):
    # the k-th worker is moved to cpus[k % n] and then given back the whole set
    calls = []
    monkeypatch.setattr(parallel.os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus)))
    started = multiprocessing.get_context("fork").SimpleQueue()
    for k in range(3):
        started.put(k)
    for _ in range(3):
        parallel._place([0, 3], started)
    assert calls == [{0}, {0, 3}, {3}, {0, 3}, {0}, {0, 3}]
    assert started.empty()
    monkeypatch.undo()

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("placement needs two CPUs")
    mask = sorted(os.sched_getaffinity(0))
    assert parallel.map_indexed(_worker_mask, None, 6, workers=2) == [(i, mask) for i in range(6)]


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
    for x0 in ([], "abc", [1.0, "2"], [[1.0]]):  # the initial state is a nonempty list of numbers
        with pytest.raises(ConfigError) as err:
            parse_config({"schema_version": 1, "model": "heat",
                          "solver": {"dt": 0.01, "T": 1.0, "level": 2}, "x0": x0})
        assert err.value.field_name == "x0"
    # solver fields: numbers that are not strings or bools, and at least one Newton iteration
    for name, value in [("newton_max_iter", 0), ("newton_max_iter", -3), ("newton_max_iter", 2.9),
                        ("newton_max_iter", True), ("newton_tol", "1e-10"), ("newton_tol", False),
                        ("dt", True), ("dt", "0.01"), ("T", True), ("T", "1"), ("level", True)]:
        solver = {"dt": 0.01, "T": 1.0, "level": 2, name: value}
        with pytest.raises(ConfigError) as err:
            parse_config({"schema_version": 1, "model": "heat", "solver": solver})
        assert err.value.field_name == f"solver.{name}", (name, value)


@pytest.mark.parametrize("x0", [[], "abc", [[1.0]]], ids=["empty", "text", "nested"])
def test_custom_model_x0_is_checked(tmp_path, capsys, x0):
    # the record's own initial state follows the top-level x0 rule
    model = dict(_custom_model({}), triple={"dimension_cap": 4}, x0=x0)
    path = _write_config(tmp_path, model=model, study={"n_paths": 4})
    for command in ("uniqueness", "stability"):
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config field 'model'" in err and "x0 must be a nonempty finite" in err


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


def test_stability_times_end_at_the_horizon(tmp_path):
    # 3 * 0.1 rounds to 0.30000000000000004; the solver's last node is T
    path = _write_config(tmp_path, solver={"dt": 0.1, "T": 0.3, "level": 2},
                         study={"n_paths": 4})
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["stability", "--config", str(path)]) == 0
    out = tmp_path / "out"
    path_times = [row.split(",")[0] for row in (out / "path.csv").read_text().splitlines()[2:]]
    stab_times = [row.split(",")[0] for row in (out / "stability.csv").read_text().splitlines()[2:]]
    assert stab_times == ["0.0", "0.1", "0.2", "0.3"]
    assert stab_times[-1] == path_times[-1]


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
        ("residual", {"n_paths": 4, "dt_levels": [0.01, 0.03]}, "study.dt_levels"),
        ("check", {"samples": 0}, "study.samples"),
        ("check", {"samples": True}, "study.samples"),
        ("residual", {"n_paths": 0}, "study.n_paths"),
        ("modulus", {"n_paths": 0, "delta_list": [0.02, 0.04]}, "study.n_paths"),
        ("uniqueness", {"n_paths": 0}, "study.n_paths"),
        ("stability", {"n_paths": 0}, "study.n_paths"),
        ("depend", {"n_paths": 0}, "study.n_paths"),
        ("converge", {"n_paths": 0, "m_list": [2, 4]}, "study.n_paths"),
        ("modulus", {"n_paths": 1, "delta_list": [0.02, 0.04]}, "study.n_paths"),
        ("converge", {"n_paths": 1, "m_list": [2, 4]}, "study.n_paths"),
        ("depend", {"n_paths": 4, "p": "x"}, "study.p"),
        ("energy", {"n_paths": 4, "p_list": ["x"]}, "study.p_list"),
        ("energy", {"n_paths": 4, "m_list": 5}, "study.m_list"),
        ("converge", {"n_paths": 4, "m_list": [2, "x"]}, "study.m_list"),
        ("modulus", {"n_paths": 4, "delta_list": [0.02, 0.04], "beta_exp": "x"}, "study.beta_exp"),
        ("simulate", {"stopping_N": "x"}, "study.stopping_N"),
        ("simulate", {"stopping_N": 0}, "study.stopping_N"),
        ("prange", {"c_tilde_base": [4.0]}, "study.c_tilde_base"),
        ("uniqueness", {"n_paths": 4, "stress": "false"}, "study.stress"),
        ("energy", {"n_paths": 4, "skip_audit": "false"}, "study.skip_audit"),
        ("isometry", {"n_paths": 100, "integrands": 5}, "study.integrands"),
        ("isometry", {"n_paths": 100, "integrands": "constant"}, "study.integrands"),
        ("stability", {"n_paths": 4, "x0_b": "abc"}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": [1e400]}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": [10**400]}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": [[1, 2]]}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": []}, "study.x0_b"),
    ],
    ids=["energy", "converge", "modulus", "residual", "residual-dt-not-dividing-T",
         "check-zero-samples", "check-bool-samples", "residual-no-paths", "modulus-no-paths",
         "uniqueness-no-paths", "stability-no-paths", "depend-no-paths", "converge-no-paths",
         "modulus-one-path", "converge-one-path", "depend-text-p", "energy-text-p_list",
         "energy-scalar-m_list", "converge-text-level", "modulus-text-beta_exp",
         "simulate-text-stopping_N", "simulate-zero-stopping_N", "prange-list-c_tilde_base",
         "uniqueness-text-stress", "energy-text-skip_audit", "isometry-scalar-integrands",
         "isometry-text-integrands", "stability-text-x0_b", "stability-inf-x0_b",
         "stability-huge-int-x0_b", "stability-nested-x0_b", "stability-empty-x0_b"],
)
def test_degenerate_study_input_names_its_field(tmp_path, capsys, command, study, field):
    # a level above the cap, an off-grid shift or step, a one-point slope
    # fit, an audit without samples, a study without paths, a CI99 of one
    # path, a field that is not a number, a list of numbers, a boolean or a
    # list of names, and a stopping threshold that is not positive
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


def test_residual_sidecar_counts_truncated_paths(tmp_path, capsys):
    # ‖x0‖_H overflows: every path of every dt level is truncated
    path = _write_config(tmp_path, x0=[1e308, 1e308], study={"n_paths": 4})
    assert main(["residual", "--config", str(path)]) == 2
    assert "FAIL" in (out := capsys.readouterr().out) and "12 of 12 paths truncated" in out
    meta = json.loads((tmp_path / "out" / "residual_meta.json").read_text(),
                      parse_constant=_reject_constant)
    assert meta["pass"] is False and meta["slope"] is None
    assert meta["dt_levels"] == [4e-3, 2e-3, 1e-3] and meta["truncated_paths"] == [4, 4, 4]

    # a passing run counts none and leaves the summary line as it was
    path = _write_config(tmp_path, study={"n_paths": 4, "dt_levels": [0.02, 0.01]})
    assert main(["residual", "--config", str(path)]) == 0
    assert "truncated" not in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "residual_meta.json").read_text())
    assert meta["truncated_paths"] == [0, 0]


def test_residual_replays_a_step_the_solver_retried_with_halved_drift(tmp_path, capsys):
    # at dt 0.05 burgers1d's full implicit step from x0 stalls and two dt/2
    # substeps finish it; the replay takes the same retry, so the dt 0.05
    # records give finite totals and the study ends in a verdict
    path = _write_config(tmp_path, model="burgers1d", x0=[30, 30, 30, 30],
                         solver={"dt": 0.05, "T": 0.2, "level": 4},
                         study={"n_paths": 4, "dt_levels": [0.1, 0.05]}, master_seed=0)
    assert main(["residual", "--config", str(path)]) in (0, 2)
    assert "residual [burgers1d]" in capsys.readouterr().out
    rows = (tmp_path / "out" / "residual.csv").read_text().splitlines()[2:]
    fine = [row.split(",") for row in rows if row.startswith("0.05,")]
    assert len(fine) == 1 and all(math.isfinite(float(v)) for v in fine[0][1:3])


def test_stability_sidecar_counts_truncated_paths(tmp_path, capsys):
    # ‖x0‖_H overflows: both members of every pair are truncated
    path = _write_config(tmp_path, x0=[1e308, 1e308], study={"n_paths": 4})
    assert main(["stability", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and out.rstrip().endswith("; 4 of 4 paths truncated")
    meta = json.loads((tmp_path / "out" / "stability_meta.json").read_text(),
                      parse_constant=_reject_constant)
    assert meta["pass"] is False and meta["truncated_paths"] == 4

    path = _write_config(tmp_path, study={"n_paths": 4})
    assert main(["stability", "--config", str(path)]) == 0
    assert "truncated" not in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "stability_meta.json").read_text())
    assert meta["truncated_paths"] == 0


@pytest.mark.parametrize(
    "command, m_list",
    [pytest.param(c, [2, 4], id=c) for c in ("depend", "uniqueness", "energy", "modulus", "converge")]
    + [pytest.param("converge", [4], id="converge-one-level")],
)
def test_depend_and_uniqueness_sidecars_count_truncated_paths(tmp_path, capsys, command, m_list):
    # ‖x0‖_H overflows: every path is truncated, and the study fails closed,
    # also where no comparison of levels is left to fail; energy counts per level
    study = {"n_paths": 4, "delta_list": [0.02, 0.04], "m_list": m_list}
    levels = len(m_list) if command == "energy" else 1
    path = _write_config(tmp_path, x0=[1e308, 1e308], study=study)
    assert main([command, "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and out.rstrip().endswith(f"; {4 * levels} of {4 * levels} paths truncated")
    meta = json.loads((tmp_path / "out" / f"{command}_meta.json").read_text(),
                      parse_constant=_reject_constant)
    assert meta["pass"] is False
    assert meta["truncated_paths"] == ([4] * levels if command == "energy" else 4)

    path = _write_config(tmp_path, study=study)
    assert main([command, "--config", str(path)]) == 0
    assert "truncated" not in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / f"{command}_meta.json").read_text())
    assert meta["truncated_paths"] == ([0] * levels if command == "energy" else 0)


#: a custom model whose cubic reaction overflows to inf on moderate states
BLOWUP_MODEL = {
    "name": "blowup",
    "regime": "part1",
    "triple": {"dimension_cap": 8, "grid_size": 16},
    "drift": {"type": "diagonal", "scale": 1.0},
    "reaction": [0.0, 0.0, 0.0, -1e306],
    "diffusion": {"type": "multiplicative_h", "c": 0.1},
    "jump": {"type": "zero"},
    "constants": {"beta": 2.0, "L_A": 1.0, "C_growth": 1.0},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_coefficient_fails_the_audit(tmp_path, capsys):
    path = _write_config(tmp_path, model=BLOWUP_MODEL, study={"samples": 64, "n_paths": 4})
    assert main(["check", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "H2: drift evaluated to a non-finite value" in out
    text = (tmp_path / "out" / "check_report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    h2 = next(e for e in report if e["hypothesis"] == "H2")
    assert h2["verdict"] == "fail" and h2["worst_margin"] is None
    assert h2["witness_coeffs"]["coefficient"] == "drift"

    # the energy study's quick audit only warns, and the study runs on
    main(["energy", "--config", str(path)])
    assert "fails its hypothesis audit (H2, H3, H4, H5)" in capsys.readouterr().err
    assert (tmp_path / "out" / "energy.csv").read_text().startswith("# verifies:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_failing_entry_keeps_the_rest_of_its_audit_group(tmp_path):
    # H3 meets the non-finite drift first; H4 and H5 still get their rows
    path = _write_config(tmp_path, model=BLOWUP_MODEL, study={"samples": 64})
    assert main(["check", "--config", str(path)]) == 2
    rows = (tmp_path / "out" / "check.csv").read_text().splitlines()[2:]
    verdicts = dict(row.split(",")[:2] for row in rows)
    assert list(verdicts) == ["H1", "H2", "H3", "H4", "H5", "H5-continuity"]
    assert verdicts["H3"] == verdicts["H4"] == "fail"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_diffusion_keeps_the_jump_continuity_entry(tmp_path):
    # B = c u overflows on the audit's larger states, so H5-continuity fails
    # on a non-finite diffusion; H6-continuity still gets its own row
    model = {
        "name": "overflow_b",
        "regime": "part1",
        "triple": {"dimension_cap": 8},
        "drift": {"type": "diagonal", "scale": 1.0},
        "diffusion": {"type": "multiplicative_h", "c": 1e308},
        "jump": {"type": "multiplicative_mark", "sigma": 0.1},
        "marks": {"points": [1.0, -1.0], "weights": [0.5, 0.5]},
        "constants": {"beta": 2.0, "L_A": 1.0, "C_growth": 1.0},
    }
    path = _write_config(tmp_path, model=model, study={"samples": 64})
    assert main(["check", "--config", str(path)]) == 2
    rows = (tmp_path / "out" / "check.csv").read_text().splitlines()[2:]
    verdicts = dict(row.split(",")[:2] for row in rows)
    assert verdicts["H5-continuity"] == "fail"
    assert verdicts["H6-continuity"] == "pass"
    report = json.loads((tmp_path / "out" / "check_report.json").read_text(),
                        parse_constant=_reject_constant)
    h5 = next(e for e in report if e["hypothesis"] == "H5-continuity")
    assert h5["worst_margin"] is None and h5["witness_coeffs"]["coefficient"] == "diffusion"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_audit_term_fails_closed(tmp_path, capsys):
    # ‖u‖_V^β overflows a float's ** on the affine weights of scale 1e200;
    # the terms it enters turn NaN, and each such entry fails on its NaN row
    # even when finite rows come first
    model = {"triple": {"dimension_cap": 8, "rule": "affine", "scale": 1e200},
             "constants": {"beta": 4.0}}
    path = _write_config(tmp_path, model=model, study={"samples": 64, "n_paths": 4})
    assert main(["check", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and out.rstrip().endswith("worst margin nan (H2)")
    report = json.loads((tmp_path / "out" / "check_report.json").read_text(),
                        parse_constant=_reject_constant)
    failing = {e["hypothesis"]: e["worst_margin"] for e in report if e["verdict"] == "fail"}
    assert failing == {"H2": None, "H3": None, "H4": None}

    # the energy study's quick audit warns instead of raising
    main(["energy", "--config", str(path)])
    assert "fails its hypothesis audit (H2, H3, H4)" in capsys.readouterr().err
