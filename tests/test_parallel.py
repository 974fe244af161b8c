"""The fork map: order, placement by worker, failures, and no child left behind."""

import io
import os
import pickle
import signal
import sys
import time

import numpy as np
import pytest

from levyspde import parallel
from levyspde.coefficients import AuditFailure
from levyspde.solver import SolverFieldError, StepFailure
from levyspde.spaces import ConfigError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")


def _timeout(signum, frame):
    raise TimeoutError("map_indexed did not return")


@pytest.fixture
def no_child_left():
    # a map that waits on a dead worker is cut by the alarm, not hung; after
    # the test, this process has no child at all
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_on(ctx, i):
    return i, i * i, os.getpid()


def test_seven_tasks_on_three_workers_equal_the_serial_map(no_child_left):
    got = parallel.map_indexed(_square_on, None, 7, workers=3)
    assert [r[:2] for r in got] == [r[:2] for r in parallel.map_indexed(_square_on, None, 7)]
    # worker k computes tasks k, k + 3, ... in its own child
    pids = [r[2] for r in got]
    assert [pids[k::3] for k in range(3)] == [[pids[k]] * len(range(k, 7, 3)) for k in range(3)]
    assert len(set(pids)) == 3 and os.getpid() not in pids


def _fail_at_2_and_4(ctx, i):
    if i in (2, 4):
        raise ValueError(f"task {i}")
    return i


def test_the_failure_of_the_lowest_task_index_is_raised(no_child_left):
    # on 3 workers, task 4 fails on worker 1, which is read first, and task 2
    # on worker 2
    with pytest.raises(ValueError, match="^task 2$") as err:
        parallel.map_indexed(_fail_at_2_and_4, None, 6, workers=3)
    assert "_fail_at_2_and_4" in str(err.value.__cause__)


def _exit_at_1(ctx, i):
    if i == 1:
        os._exit(3)
    return i


def test_a_worker_that_dies_is_a_runtime_error(no_child_left):
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"^fork worker 1 ended without a result \(exit status 3\)$"):
        parallel.map_indexed(_exit_at_1, None, 4, workers=2)
    assert time.monotonic() - started < 10


def _kill_at_0(ctx, i):
    if i == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def test_a_killed_worker_names_its_signal(no_child_left):
    ended = rf"fork worker 0 ended without a result \(killed by signal {signal.SIGKILL:d}\)"
    with pytest.raises(RuntimeError, match=ended):
        parallel.map_indexed(_kill_at_0, None, 3, workers=3)


def _closure_at_2(ctx, i):
    return i if i != 2 else lambda: i


def test_a_result_that_does_not_pickle_is_a_runtime_error(no_child_left):
    with pytest.raises(RuntimeError, match="^task 2's result does not pickle"):
        parallel.map_indexed(_closure_at_2, None, 4, workers=2)


class _OneWay(Exception):
    # pickles, but its reduced form does not construct
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _one_way_at_1(ctx, i):
    if i == 1:
        raise _OneWay("x", "y")
    return i


def test_an_exception_that_does_not_unpickle_carries_its_traceback(no_child_left):
    with pytest.raises(RuntimeError, match="^task 1 failed in fork worker 1 with an exception that does "
                                           "not unpickle") as err:
        parallel.map_indexed(_one_way_at_1, None, 2, workers=2)
    assert "_one_way_at_1" in str(err.value) and "_OneWay: x/y" in str(err.value)


def _config_error_at_3(ctx, i):
    if i == 3:
        raise ConfigError("study.n_paths", "expected an integer")
    return i


def test_a_config_error_crosses_the_pipe_with_its_field(no_child_left):
    with pytest.raises(ConfigError, match="expected an integer") as err:
        parallel.map_indexed(_config_error_at_3, None, 4, workers=2)
    assert err.value.field_name == "study.n_paths"
    assert str(err.value) == str(ConfigError("study.n_paths", "expected an integer"))


@pytest.mark.parametrize("exc, fields", [
    (ConfigError("solver.dt", "need 0 < dt < T"), {"field_name": "solver.dt"}),
    (StepFailure(0.25, 3.5e-4, 50), {"time": 0.25, "residual": 3.5e-4, "iterations": 50}),
    (SolverFieldError("level", "level must be positive"), {"field": "level"}),
    (AuditFailure("drift is not finite", {"coefficient": "drift", "t": 0.5, "u": [1.0, np.inf]}),
     {"witness": {"coefficient": "drift", "t": 0.5, "u": [1.0, np.inf]}}),
], ids=["ConfigError", "StepFailure", "SolverFieldError", "AuditFailure"])
def test_exceptions_survive_a_pickle_round_trip(exc, fields):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc) and back.args == exc.args
    assert {name: getattr(back, name) for name in fields} == fields


def _noop(ctx, i):
    return i


def test_unflushed_stdout_before_the_map_appears_once(capfd, monkeypatch, no_child_left):
    # a buffered stdout holding unwritten text when the children fork: only
    # the parent writes it
    out = io.TextIOWrapper(open(os.dup(1), "wb"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    print("written before the map", end="|")
    assert parallel.map_indexed(_noop, None, 4, workers=2) == [0, 1, 2, 3]
    out.close()
    assert capfd.readouterr().out == "written before the map|"
