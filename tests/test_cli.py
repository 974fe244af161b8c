"""Runner behavior: exit codes, artifact determinism, output content."""

import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from levyspde import parallel, wellposedness
from levyspde.coefficients import admissible_p_range
from levyspde.models import builtin
from levyspde.rng import path_seed
from levyspde.cli import COMMANDS, main
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
    "model, field",
    [("mystery", "model"),
     (_custom_model({"f_profile": 1.0}), "model.constants.f_profile"),
     (_custom_model({"g_profile": 1.0}), "model.constants.g_profile"),
     (dict(_custom_model({}), local_bound_const=1.0), "model.local_bound_const")],
    ids=["unknown-builtin", "f_profile-constant", "g_profile-constant", "local_bound_const"],
)
def test_unknown_model_exits_usage_error(tmp_path, capsys, model, field):
    # a constant the hypothesis system does not declare is a config error, as
    # is M_t(r): a config model declares rho and eta, so H2prime never reads it
    path = _write_config(tmp_path, model=model)
    assert main(["check", "--config", str(path)]) == 1
    assert f"config field '{field}'" in capsys.readouterr().err


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


def test_part2_moment_order_is_read_against_p_max(tmp_path, capsys):
    # the range ends at p_max, not at the scanned row nearest p: a quarter
    # step past p_max, p reads p_max's admissible row, and p = 1 the row at
    # 2; an unbounded range takes any order; the error names the field read
    p_max = admissible_p_range(builtin("grad_noise_linear").constants).p_max
    for p, code in ((p_max + 2**-8, 1), (1.0, 1), (p_max, 0)):
        path = _write_config(tmp_path, model="grad_noise_linear", study={"n_paths": 4, "p": p})
        assert main(["depend", "--config", str(path)]) == code, p
        err = capsys.readouterr().err
        assert ("'study.p'" in err) == (code == 1) and "p_list" not in err, p
    unbounded = dict(_custom_model({"L_B": 0.0, "L_gamma": 0.0}), regime="part2")
    path = _write_config(tmp_path, model=unbounded, study={"n_paths": 4, "p": 40.0})
    assert main(["depend", "--config", str(path)]) == 0


def test_solver_level_exceeding_cap(tmp_path):
    path = _write_config(tmp_path, solver={"dt": 0.01, "T": 0.2, "level": 1000})
    assert main(["check", "--config", str(path)]) == 1


def test_prange_prints_interval(tmp_path, capsys):
    path = _write_config(tmp_path, model="grad_noise_linear")
    assert main(["prange", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    # p_max passes both rules, so the printed interval includes it
    assert "chi=1" in out and "admissible p in [2, 8.65625]" in out
    body = (tmp_path / "out" / "prange.csv").read_text()
    assert body.startswith("# verifies:")
    assert "C1" in body.splitlines()[1]
    row = next(line.split(",") for line in body.splitlines() if line.startswith("8.65625,"))
    assert row[3:5] == ["true", "true"]
    unbounded = dict(_custom_model({"L_B": 0.0, "L_gamma": 0.0}), regime="part2")
    path = _write_config(tmp_path, model=unbounded)
    assert main(["prange", "--config", str(path)]) == 0
    assert "admissible p in [2, inf) (unbounded" in capsys.readouterr().out


def test_uniqueness_pass_and_artifacts(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["uniqueness", "--config", str(path)]) == 0
    assert "max sup-difference 0.000e+00" in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "uniqueness_meta.json").read_text())
    assert meta["pass"] is True and meta["study"] == "uniqueness"


def _one_path_batches(seed, n_paths, rows_per_path, workers):
    return [[path_seed(seed, i)] for i in range(n_paths)]


def test_rerun_and_worker_counts_are_byte_identical(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    bodies = []
    for args in (["--workers", "1"], ["--workers", "1"], ["--workers", "4"]):
        assert main(["energy", "--config", str(path), *args]) == 0
        bodies.append((tmp_path / "out" / "energy.csv").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]

    # the other ensemble studies, at 2 workers and in batches of one path too;
    # 10 paths make one task, or two at 2 workers
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
        for workers, one_path in (("1", False), ("1", False), ("2", False), ("1", True), ("2", True)):
            if one_path:
                monkeypatch.setattr(parallel, "split_by_rows", _one_path_batches)
            assert main([command, "--config", str(path), "--workers", workers]) == code, command
            bodies.append((tmp_path / "out" / artifact).read_bytes())
        monkeypatch.undo()
        assert len(set(bodies)) == 1, (command, extra, model)


def _worker_mask(ctx, i):
    return i, sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_fork_workers_start_on_distinct_cpus_without_a_pin(monkeypatch):
    # the k-th worker is moved to cpus[k % n] and then given back the whole set
    calls = []
    monkeypatch.setattr(parallel.os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus)))
    for k in range(3):
        parallel._start_on([0, 3], k)
    assert calls == [{0}, {0, 3}, {3}, {0, 3}, {0}, {0, 3}]
    monkeypatch.undo()

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("placement needs two CPUs")
    mask = sorted(os.sched_getaffinity(0))
    assert parallel.map_indexed(_worker_mask, None, 6, workers=2) == [(i, mask) for i in range(6)]


def _seed_columns(seeds):
    # three values per path from its seed alone, as an F-ordered block (the
    # layout a transposed (K, paths) table has)
    return np.asfortranarray([(s % 997, s >> 40, (s % 997) ** 0.5) for s in seeds])


@pytest.mark.parametrize("one_path", [False, True], ids=["split", "one-path-batches"])
@pytest.mark.parametrize("workers", [1, 2])
def test_path_rows_equal_a_serial_loop_over_the_seeds(monkeypatch, workers, one_path):
    # 10 paths of 40 rows: split_by_rows makes 4 batches; the closures reach
    # the fork workers as they are, and the rows come back in path order
    if one_path:
        monkeypatch.setattr(parallel, "split_by_rows", _one_path_batches)
    seeds = [path_seed(3, i) for i in range(10)]
    rows = parallel.path_rows(_seed_columns, 3, 10, 40, workers)
    np.testing.assert_array_equal(rows, np.concatenate([_seed_columns([s]) for s in seeds]))
    assert rows.shape == (10, 3) and rows.flags.c_contiguous
    column = parallel.path_rows(lambda batch: [s % 101 for s in batch], 3, 10, 40, workers)
    np.testing.assert_array_equal(column, [[s % 101] for s in seeds])


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
    payload = json.loads((tmp_path / "out" / "uniqueness.json").read_text())
    assert payload["verifies"].startswith("Theorem")
    assert not (tmp_path / "out" / "uniqueness.csv").exists()


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


def test_config_loader_errors(tmp_path):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    for path in ("/nonexistent/config.json", tmp_path, tmp_path / "binary.json"):
        with pytest.raises(ConfigError) as err:  # missing, a directory, not UTF-8
            load_config(path)
        assert err.value.field_name == "config"
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
    # solver fields: numbers that are not strings or bools, inside their ranges,
    # and at least one Newton iteration; dt 0.3 does not divide T 1.0
    for name, value in [("newton_max_iter", 0), ("newton_max_iter", -3), ("newton_max_iter", 2.9),
                        ("newton_max_iter", True), ("newton_tol", "1e-10"), ("newton_tol", False),
                        ("dt", True), ("dt", "0.01"), ("T", True), ("T", "1"), ("level", True),
                        ("dt", -1.0), ("dt", 0.3), ("dt", 2.0), ("T", -1.0), ("level", 0),
                        ("scheme", "magic"), ("newton_tol", -1.0), ("T", 10**400)]:
        solver = {"dt": 0.01, "T": 1.0, "level": 2, name: value}
        with pytest.raises(ConfigError) as err:
            parse_config({"schema_version": 1, "model": "heat", "solver": solver})
        assert err.value.field_name == f"solver.{name}", (name, value)
    with pytest.raises(ConfigError) as err:  # a config is an object
        parse_config([])
    assert err.value.field_name == "config"
    with pytest.raises(ConfigError) as err:  # a path is text
        parse_config({"schema_version": 1, "model": "heat",
                      "solver": {"dt": 0.01, "T": 1.0, "level": 2}, "output_dir": 5})
    assert err.value.field_name == "output_dir"


def test_null_optional_fields_mean_their_defaults(tmp_path):
    bare = {"schema_version": 1, "model": "heat", "solver": {"dt": 0.01, "T": 1.0, "level": 2}}
    nulls = dict(bare, solver=dict(bare["solver"], newton_tol=None, scheme=None),
                 x0=None, output_dir=None, master_seed=None, study=None)
    want, got = parse_config(bare), parse_config(nulls)
    assert (got.solver, got.master_seed, got.output_dir, got.study, got.x0) == \
        (want.solver, want.master_seed, want.output_dir, want.study, want.x0)
    # a study field that its subcommand reads: isometry's integrands
    runs = []
    for study in ({"n_paths": 100}, {"n_paths": 100, "integrands": None}):
        path = _write_config(tmp_path, study=study)
        runs.append((main(["isometry", "--config", str(path)]),
                     (tmp_path / "out" / "isometry.csv").read_bytes()))
    assert runs[0] == runs[1] and runs[0][0] in (0, 2)


@pytest.mark.parametrize("x0", [[], "abc", [[1.0]]], ids=["empty", "text", "nested"])
def test_custom_model_x0_is_checked(tmp_path, capsys, x0):
    # the record's own initial state follows the top-level x0 rule
    model = dict(_custom_model({}), triple={"dimension_cap": 4}, x0=x0)
    path = _write_config(tmp_path, model=model, study={"n_paths": 4})
    for command in ("uniqueness", "stability"):
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config field 'model.x0'" in err and "expected a nonempty list of finite numbers" in err


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


def test_workers_env_var(tmp_path, monkeypatch, capsys):
    path = _write_config(tmp_path)
    monkeypatch.setenv("LEVYSPDE_WORKERS", "4")
    assert main(["energy", "--config", str(path)]) == 0
    env_body = (tmp_path / "out" / "energy.csv").read_bytes()
    monkeypatch.delenv("LEVYSPDE_WORKERS")
    assert main(["energy", "--config", str(path)]) == 0
    assert env_body == (tmp_path / "out" / "energy.csv").read_bytes()
    # a worker count that is not a positive integer fails closed
    capsys.readouterr()
    for flag in ("0", "-2"):
        assert main(["energy", "--config", str(path), "--workers", flag]) == 1
        assert "config field '--workers'" in capsys.readouterr().err
    for env in ("abc", "0"):
        monkeypatch.setenv("LEVYSPDE_WORKERS", env)
        assert main(["energy", "--config", str(path)]) == 1
        assert "config field 'LEVYSPDE_WORKERS'" in capsys.readouterr().err


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
def test_non_finite_initial_norm_fails(tmp_path, capsys, command):
    # ‖x0‖_H overflows to inf: every path is truncated and the study fails,
    # and the overflow that defines the truncation warns about nothing
    study = {"n_paths": 4, "p_list": [2.0], "m_list": [2, 4], "delta_list": [0.02, 0.04]}
    path = _write_config(tmp_path, x0=[1e308, 1e308], study=study)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    if command == "simulate":
        body = (tmp_path / "out" / "path.csv").read_text()
        assert "inf" not in body and "nan" not in body


#: u' = u² from u = 1: the drift solve fails at t = 0.94, where ‖Y‖_H is
#: about 45.5, far below a stopping threshold of 1e12
BLOWUP = {"name": "blowup", "triple": {"dimension_cap": 4, "grid_size": 16}, "reaction": [0, 0, 1],
          "drift": {"type": "diagonal", "scale": 0.0}, "x0": [1.0, 0, 0, 0]}


def test_stopping_a_path_truncated_at_the_start_fails(tmp_path, capsys):
    # a truncated record that crossed no threshold has no stopping time: at
    # t = 0 (‖x0‖_H overflows) it holds no time, and a failed drift solve
    # ends it before T for a reason that is not a threshold
    cases = [
        (dict(x0=[1e308, 1e308], study={"stopping_N": 1.0}), "0 entries, 0 jumps, truncated at 0", 0.0),
        (dict(model=BLOWUP, solver={"dt": 0.01, "T": 1.0, "level": 4}, study={"stopping_N": 1e12}),
         "95 entries, 0 jumps, truncated at 0.94", 0.94),
    ]
    for overrides, line, truncated_at in cases:
        path = _write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().out.strip().endswith(f"FAIL: {line}")
        meta = json.loads((tmp_path / "out" / "path_meta.json").read_text())
        assert meta["pass"] is False and meta["stopped_at"] is None
        assert meta["truncated_at"] == pytest.approx(truncated_at, abs=1e-12)


def test_a_path_stopped_before_its_truncation_passes(tmp_path, capsys):
    # the blowup path crosses N = 100 at 0.88, before its drift solve fails
    # at 0.94: the stopped prefix ends at tau and holds no truncation
    path = _write_config(tmp_path, model=BLOWUP, solver={"dt": 0.01, "T": 1.0, "level": 4},
                         study={"stopping_N": 100.0})
    assert main(["simulate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS: 89 entries, 0 jumps, stopped at 0.88")
    meta = json.loads((tmp_path / "out" / "path_meta.json").read_text())
    assert meta["pass"] is True and meta["truncated_at"] is None
    assert meta["stopped_at"] == pytest.approx(0.88, abs=1e-12)


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
        ("energy", {"n_paths": 4, "skip_audit": True}, "study.skip_audit"),
        ("isometry", {"n_paths": 100, "integrands": 5}, "study.integrands"),
        ("isometry", {"n_paths": 100, "integrands": "constant"}, "study.integrands"),
        ("stability", {"n_paths": 4, "x0_b": "abc"}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": [1e400]}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": [10**400]}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": [[1, 2]]}, "study.x0_b"),
        ("stability", {"n_paths": 4, "x0_b": []}, "study.x0_b"),
        ("energy", {"n_paths": 4, "m_list": [2.7, 4]}, "study.m_list"),
        ("converge", {"n_paths": 4, "m_list": [2.7, 4]}, "study.m_list"),
        ("depend", {"n_paths": 4, "p": 10**400}, "study.p"),
        ("depend", {"n_paths": 4, "perturbations": [0.1, 10**400]}, "study.perturbations"),
        ("converge", {"n_paths": 4, "m_list": [4]}, "study.m_list"),
        ("converge", {"n_paths": 4, "m_list": [4, 4]}, "study.m_list"),
        ("modulus", {"n_paths": 4, "delta_list": [0.04]}, "study.delta_list"),
        ("modulus", {"n_paths": 4, "delta_list": [0.04, 0.04]}, "study.delta_list"),
        ("modulus", {"n_paths": 4, "delta_list": [0.04, 0.04 + 5e-13]}, "study.delta_list"),
        ("depend", {"n_paths": 4, "perturbations": [0.1, 0.1]}, "study.perturbations"),
        ("energy", {"n_paths": 4, "m_list": [4, 4]}, "study.m_list"),
        ("residual", {"n_paths": 4, "dt_levels": [0.01, 0.01]}, "study.dt_levels"),
        ("energy", {"n_paths": 4, "p_list": [1.0]}, "study.p_list"),
        ("depend", {"n_paths": 4, "p": 0}, "study.p"),
        ("modulus", {"n_paths": 4, "delta_list": [0.02, 0.04], "beta_exp": 0}, "study.beta_exp"),
        ("modulus", {"n_paths": 4, "delta_list": [0.02, 0.04], "beta_exp": -1}, "study.beta_exp"),
        ("prange", {"c_tilde_base": -2}, "study.c_tilde_base"),
        ("prange", {"c_tilde_base": 0}, "study.c_tilde_base"),
        ("uniqueness", {"n_paths": 4, "stres": True}, "study.stres"),
        ("converge", {"n_paths": 4, "m_lsit": [2, 4]}, "study.m_lsit"),
        ("check", {"n_paths": 4, "smaples": 8}, "study.smaples"),
        ("uniqueness", {"study": {"n_paths": 4}, "master_sed": 5}, "'master_sed'"),
        ("uniqueness", {"study": {"n_paths": 4},
                        "solver": {"dt": 0.01, "T": 0.2, "level": 4, "newton_tool": 1e-9}},
         "solver.newton_tool"),
        ("check", {"study": {"samples": 64},
                   "model": dict(_custom_model({"L_B": 0.0, "L_gamma": 0.0}), regmie="part2")},
         "model.regmie"),
    ],
    ids=["energy", "converge", "modulus", "residual", "residual-dt-not-dividing-T",
         "check-zero-samples", "check-bool-samples", "residual-no-paths", "modulus-no-paths",
         "uniqueness-no-paths", "stability-no-paths", "depend-no-paths", "converge-no-paths",
         "modulus-one-path", "converge-one-path", "depend-text-p", "energy-text-p_list",
         "energy-scalar-m_list", "converge-text-level", "modulus-text-beta_exp",
         "simulate-text-stopping_N", "simulate-zero-stopping_N", "prange-list-c_tilde_base",
         "uniqueness-text-stress", "energy-removed-skip_audit", "isometry-scalar-integrands",
         "isometry-text-integrands", "stability-text-x0_b", "stability-inf-x0_b",
         "stability-huge-int-x0_b", "stability-nested-x0_b", "stability-empty-x0_b",
         "energy-fractional-m_list", "converge-fractional-m_list", "depend-huge-int-p",
         "depend-huge-int-perturbations", "converge-one-level", "converge-repeated-level",
         "modulus-one-shift", "modulus-repeated-shift", "modulus-one-grid-shift",
         "depend-repeated-perturbation", "energy-repeated-level", "residual-repeated-dt",
         "energy-p-below-2", "depend-p-zero", "modulus-zero-beta_exp", "modulus-negative-beta_exp",
         "prange-negative-c_tilde_base", "prange-zero-c_tilde_base", "uniqueness-misspelled-stress",
         "converge-misspelled-m_list", "check-misspelled-samples", "misspelled-master_seed",
         "misspelled-solver-newton_tol", "misspelled-model-regime"],
)
def test_degenerate_study_input_names_its_field(tmp_path, capsys, command, study, field):
    # a level above the cap, an off-grid shift or step, a one-point slope
    # fit or comparison (one entry, or one repeated), a moment order below
    # 2, an audit without samples, a study without paths, a CI99 of one
    # path, a field that is not a number, a list of numbers, a boolean or a
    # list of names, a stopping threshold, modulus exponent or imported
    # constant base out of range, and a misspelled or removed key that no
    # subcommand reads; a case whose dict holds "study" overrides the top-level
    # fields, so a misspelled key of the top level, the solver or the model
    # fails too
    path = _write_config(tmp_path, **(study if "study" in study else {"study": study}))
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


@pytest.mark.parametrize("command, x0, study, summary", [
    ("modulus", [1e80], {"beta_exp": 4.0, "delta_list": [0.02, 0.04]},
     "FAIL: undefined: an estimate is not finite"),
    ("depend", None, {"perturbations": [1e154, 1e153, 1e152]},
     "FAIL: table log-log slope 2.000 at p=2; an estimate is inf"),
], ids=["modulus", "depend"])
def test_an_infinite_estimate_fails_its_study(tmp_path, capsys, command, x0, study, summary):
    # every path runs to T, but an increment or a difference overflows its
    # moment: the table keeps the inf, and the verdict fails on it
    extra = {} if x0 is None else {"x0": x0}
    path = _write_config(tmp_path, study={"n_paths": 4, **study}, master_seed=0, **extra)
    assert main([command, "--config", str(path)]) == 2
    assert summary in capsys.readouterr().out
    assert ",inf," in (tmp_path / "out" / f"{command}.csv").read_text()
    assert json.loads((tmp_path / "out" / f"{command}_meta.json").read_text())["truncated_paths"] == 0


def test_a_truncated_path_fails_a_passing_study(tmp_path, capsys, monkeypatch):
    # the CLI alone turns a truncated path into FAIL: a study result that
    # passes on its own still fails, and its line ends with the count
    path = _write_config(tmp_path, study={"n_paths": 4})
    assert main(["stability", "--config", str(path)]) == 0
    capsys.readouterr()
    real = wellposedness.weighted_stability_mc
    monkeypatch.setattr(wellposedness, "weighted_stability_mc", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), truncated_paths=1))
    assert main(["stability", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "stability [heat] FAIL" in out and out.rstrip().endswith("; 1 of 4 paths truncated")
    meta = json.loads((tmp_path / "out" / "stability_meta.json").read_text())
    assert meta["pass"] is False and meta["truncated_paths"] == 1


def test_initial_states_longer_than_the_model_fail_closed(tmp_path, capsys):
    # heat's dimension_cap is 48: no level solves a 49th mode, so a longer
    # x0, custom-model x0 or x0_b is a config error naming its field
    study = {"n_paths": 4, "m_list": [4]}
    for command in ("energy", "stability"):
        path = _write_config(tmp_path, x0=[0.1] * 60, study=study)
        assert main([command, "--config", str(path)]) == 1
        assert "config field 'x0'" in capsys.readouterr().err
    path = _write_config(tmp_path, study={"n_paths": 4, "x0_b": [0.1] * 50}, master_seed=0)
    assert main(["stability", "--config", str(path)]) == 1
    assert "config field 'study.x0_b'" in capsys.readouterr().err
    model = dict(_custom_model({}), x0=[0.1] * 9)
    path = _write_config(tmp_path, model=model, study=study)
    assert main(["stability", "--config", str(path)]) == 1
    assert "config field 'model.x0'" in capsys.readouterr().err
    # the bound is read off the level-4 starts: modes 5..48 of x0 - x0_b
    # add 0.2009 to it, which no solved mode sees
    path = _write_config(tmp_path, study={"n_paths": 4, "x0_b": [1.0]}, master_seed=0)
    assert main(["stability", "--config", str(path)]) in (0, 2)
    meta = json.loads((tmp_path / "out" / "stability_meta.json").read_text())
    assert meta["bound"] == pytest.approx(1 / 4 + 1 / 9 + 1 / 16, rel=1e-12)


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


def test_residual_exact_balance_fails_and_names_its_levels(tmp_path, capsys):
    # no drift and no noise: every step balances exactly, so a mean total is
    # 0, no slope can be fitted to its log, and the study fails without a
    # numpy warning on stderr
    model = {
        "name": "still",
        "regime": "part1",
        "triple": {"dimension_cap": 4},
        "drift": {"type": "diagonal", "scale": 0.0},
        "diffusion": {"type": "zero"},
        "jump": {"type": "zero"},
        "constants": {"beta": 2.0, "L_A": 1.0, "C_growth": 1.0},
    }
    path = _write_config(tmp_path, model=model, solver={"dt": 0.02, "T": 0.2, "level": 4},
                         study={"n_paths": 4, "dt_levels": [0.02, 0.01]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["residual", "--config", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    assert out.rstrip().endswith("slope nan (target [0.7, 1.3]); mean total is 0 at dt 0.02, 0.01")
    meta = json.loads((tmp_path / "out" / "residual_meta.json").read_text(),
                      parse_constant=_reject_constant)
    assert meta["pass"] is False and meta["slope"] is None


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


@pytest.mark.parametrize("command", ["depend", "uniqueness", "energy", "modulus", "converge"])
def test_depend_and_uniqueness_sidecars_count_truncated_paths(tmp_path, capsys, command):
    # ‖x0‖_H overflows: every path is truncated, and the study fails closed;
    # energy counts per level
    study = {"n_paths": 4, "delta_list": [0.02, 0.04], "m_list": [2, 4]}
    levels = 2 if command == "energy" else 1
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


@contextlib.contextmanager
def _warnings_printed():
    """Every warning printed to ``sys.stderr``, as outside pytest, here and in fork children."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


def test_non_finite_coefficient_fails_the_audit(tmp_path, capsys):
    path = _write_config(tmp_path, model=BLOWUP_MODEL, study={"samples": 64, "n_paths": 4})
    with _warnings_printed():
        assert main(["check", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "RuntimeWarning" not in err
    assert "FAIL" in out and "H2: drift evaluated to a non-finite value" in out
    text = (tmp_path / "out" / "check_report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    h2 = next(e for e in report if e["hypothesis"] == "H2")
    assert h2["verdict"] == "fail" and h2["worst_margin"] is None
    assert h2["witness_coeffs"]["coefficient"] == "drift"

    # the energy study's quick audit only warns, and the study runs on
    with _warnings_printed():
        main(["energy", "--config", str(path)])
    err = capsys.readouterr().err
    assert "fails its hypothesis audit (H2, H3, H4, H5)" in err and "RuntimeWarning" not in err
    assert (tmp_path / "out" / "energy.csv").read_text().startswith("# verifies:")


def test_one_failing_entry_keeps_the_rest_of_its_audit_group(tmp_path, capsys):
    # H3 meets the non-finite drift first; H4 and H5 still get their rows
    path = _write_config(tmp_path, model=BLOWUP_MODEL, study={"samples": 64})
    with _warnings_printed():
        assert main(["check", "--config", str(path)]) == 2
    assert "RuntimeWarning" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "check.csv").read_text().splitlines()[2:]
    verdicts = dict(row.split(",")[:2] for row in rows)
    assert list(verdicts) == ["H1", "H2", "H3", "H4", "H5", "H5-continuity"]
    assert verdicts["H3"] == verdicts["H4"] == "fail"


def test_overflowing_diffusion_keeps_the_jump_continuity_entry(tmp_path, capsys):
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
    with _warnings_printed():
        assert main(["check", "--config", str(path)]) == 2
    assert "RuntimeWarning" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "check.csv").read_text().splitlines()[2:]
    verdicts = dict(row.split(",")[:2] for row in rows)
    assert verdicts["H5-continuity"] == "fail"
    assert verdicts["H6-continuity"] == "pass"
    report = json.loads((tmp_path / "out" / "check_report.json").read_text(),
                        parse_constant=_reject_constant)
    h5 = next(e for e in report if e["hypothesis"] == "H5-continuity")
    assert h5["worst_margin"] is None and h5["witness_coeffs"]["coefficient"] == "diffusion"


def test_overflowing_audit_term_fails_closed(tmp_path, capsys):
    # ‖u‖_V^β overflows a float's ** on the affine weights of scale 1e200;
    # the terms it enters turn NaN, and each such entry fails on its NaN row
    # even when finite rows come first
    model = {"triple": {"dimension_cap": 8, "rule": "affine", "scale": 1e200},
             "constants": {"beta": 4.0}}
    path = _write_config(tmp_path, model=model, study={"samples": 64, "n_paths": 4})
    with _warnings_printed():
        assert main(["check", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "FAIL" in out and out.rstrip().endswith("worst margin nan (H2)")
    assert "RuntimeWarning" not in err
    report = json.loads((tmp_path / "out" / "check_report.json").read_text(),
                        parse_constant=_reject_constant)
    failing = {e["hypothesis"]: e["worst_margin"] for e in report if e["verdict"] == "fail"}
    assert failing == {"H2": None, "H3": None, "H4": None}

    # the energy study's quick audit warns instead of raising
    with _warnings_printed():
        main(["energy", "--config", str(path)])
    err = capsys.readouterr().err
    assert "fails its hypothesis audit (H2, H3, H4)" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "command",
    ["check", "energy", "simulate", "stability", "depend", "residual", "uniqueness", "modulus", "converge"],
)
def test_an_overflowing_model_leaks_no_numpy_warning(tmp_path, capfd, command, workers):
    # the study reports the overflow by its verdict; numpy's warnings about it
    # stay off stderr, the fork children's fd 2 included
    study = {"n_paths": 4, "samples": 64, "p_list": [2.0], "m_list": [2, 4], "delta_list": [0.02, 0.04]}
    path = _write_config(tmp_path, model=BLOWUP_MODEL, study=study)
    with _warnings_printed():
        assert main([command, "--config", str(path), "--workers", str(workers)]) == 2
    leaked = [line for line in capfd.readouterr().err.splitlines() if not line.startswith("levyspde ")]
    assert not leaked, leaked[:2]


def test_study_keys_are_declared_per_subcommand(tmp_path, capsys):
    # a key no subcommand reads fails closed and the message lists the
    # subcommand's own fields; a key another subcommand reads is accepted and
    # listed as ignored, beside the inputs with their defaults filled in
    path = _write_config(tmp_path, study={"n_paths": 4, "stres": True})
    assert main(["uniqueness", "--config", str(path)]) == 1
    assert capsys.readouterr().err.rstrip().endswith(
        "config field 'study.stres': no subcommand reads it; this one reads n_paths, stress")
    path = _write_config(tmp_path, study={"n_paths": 4, "samples": 8, "m_list": [2, 4], "stress": None})
    assert main(["uniqueness", "--config", str(path)]) == 0
    meta = json.loads((tmp_path / "out" / "uniqueness_meta.json").read_text())
    assert meta["inputs"] == {"n_paths": 4, "stress": False}
    assert meta["ignored"] == ["samples", "m_list"]
    # the defaults that read the config: energy's level, modulus's shifts and
    # exponent, and stability's second initial state
    path = _write_config(tmp_path, solver={"dt": 0.01, "T": 0.4, "level": 3}, study={"n_paths": 4})
    x0 = builtin("heat").default_x0.tolist()
    for command, inputs in (
        ("energy", {"p_list": [2.0], "m_list": [3], "n_paths": 4}),
        ("modulus", {"delta_list": [0.04, 0.08, 0.16, 0.32], "n_paths": 4,
                     "beta_exp": builtin("heat").constants.beta}),
        ("stability", {"n_paths": 4, "x0_b": [x0[0] + 0.1, *x0[1:]]}),
    ):
        assert main([command, "--config", str(path)]) == 0, command
        meta = json.loads((tmp_path / "out" / f"{command}_meta.json").read_text())
        assert meta["inputs"] == inputs and meta["ignored"] == [], command


def test_subcommand_help_lists_its_study_fields(capsys):
    assert main(["modulus", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.split("study fields:\n")[1].splitlines() == [
        "  delta_list (default [4, 8, 16, 32] x dt): multiples of dt up to T, at two distinct grid shifts",
        "  n_paths (default 200): at least 2",
        "  beta_exp (default the model's beta): above 1",
    ]


def test_readme_field_table_matches_the_declarations():
    # every declared field appears under its subcommand with its default and
    # range, and the table lists no undeclared field
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("| Subcommand | Field | Default | Range |\n| --- | --- | --- | --- |\n")[1]
    rows = [line.strip("| ").split(" | ") for line in section.split("\n\n")[0].splitlines()]
    table = [(cmd.strip("`"), name.strip("`"), default, limits) for cmd, name, default, limits in rows]
    declared = [(cmd, f.name, f.shown or json.dumps(f.default), f.limits)
                for cmd, spec in COMMANDS.items() for f in spec.fields]
    assert table == declared


def test_artifact_hash_survey_runs_one_model_and_subcommand(tmp_path):
    # each run is keyed by model, subcommand, seed and worker count, and its
    # manifest entry hashes every artifact except the timed sidecar
    import artifact_hashes

    manifest = artifact_hashes.survey({"heat": ("heat", None)}, commands=["simulate"])
    assert list(manifest) == [f"heat/simulate/seed{s}/workers{w}" for s in (0, 7) for w in (1, 2)]
    runs = list(manifest.values())
    assert all(run["exit"] == 0 and list(run["artifacts"]) == ["path.csv"] for run in runs)
    assert all(run["stdout"].startswith("levyspde simulate [heat] PASS") for run in runs)
    assert runs[0]["artifacts"] == runs[1]["artifacts"] != runs[2]["artifacts"] == runs[3]["artifacts"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert artifact_hashes._main(["--compare", str(path), str(path)]) == 0
    assert artifact_hashes.changed(manifest, dict(manifest, extra={})) == ["extra"]
