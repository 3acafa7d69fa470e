"""End-to-end checks of the package's headline physics claims.

Each test runs one criterion from the acceptance module and prints its
summary line, so `pytest -v` shows one pass/fail line per claim.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from dressed_cool import acceptance, cli, dynamics, sweep
from dressed_cool.analysis import cooling_trajectory
from dressed_cool.config import Config, to_system_params
from dressed_cool.dynamics import PropagationStats
from dressed_cool.sweep import parallel_map


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_cooling_rate_tracks_formula():
    _check(acceptance.criterion_1())


def test_criterion_2_steady_state_purity():
    _check(acceptance.criterion_2())


def test_criterion_3_strong_coupling_oscillation():
    _check(acceptance.criterion_3())


def test_criterion_4_blue_detuned_inversion():
    _check(acceptance.criterion_4())


def test_criterion_5_tilted_axis_optimum():
    _check(acceptance.criterion_5())


def test_criterion_6_formula_and_frame_equivalence():
    _check(acceptance.criterion_6())


def test_criterion_7_conservation_suite():
    _check(acceptance.criterion_7())


def test_criterion_8_effective_temperature():
    _check(acceptance.criterion_8())


def test_criterion_7_gates_the_truncation_edge(monkeypatch):
    # one verify trajectory run at too small a cutoff (turn-on at n_bar = 4
    # forced to n_fock 8, top level 0.0627) fails the criterion by itself
    p = to_system_params(Config(n_bar=4.0, n_fock=8))
    bad = cooling_trajectory(p, 0.5, n_times=51)
    monkeypatch.setattr(acceptance, "_TRAJECTORIES", {"bad": (p, bad)})
    result = acceptance.criterion_7()
    assert not result.passed
    assert "max top Fock level population = 6.27e-02 (tol 1e-04)" in result.detail


def _cheap_runs():
    # the three kinds of suite trajectory at n_fock 8 over 0.5 us
    return (
        ("turn-on", Config(n_bar=1.0, n_fock=8, t_max_us=0.5, n_times=51), False),
        ("ground", Config(n_bar=2.0, n_fock=8, initial_state="ground", t_max_us=0.5, n_times=51), False),
        ("lab field", Config(n_bar=1.0, n_fock=8, frame="undisplaced", t_max_us=0.5, n_times=51), True),
    )


def test_trajectories_are_the_same_for_any_worker_count(monkeypatch):
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = parallel_map(acceptance._trajectory, _cheap_runs(), workers=1)
    pooled = parallel_map(acceptance._trajectory, _cheap_runs(), workers=2)
    for one, two in zip(serial, pooled, strict=True):
        assert one.expectations.keys() == two.expectations.keys()
        for name, series in one.expectations.items():
            assert np.array_equal(series, two.expectations[name]), name
        assert one.stats.generator_applications == two.stats.generator_applications
        assert one.stats.max_trace_deviation == two.stats.max_trace_deviation
        assert one.stats.min_eigenvalue == two.stats.min_eigenvalue


def test_a_programming_error_in_a_worker_is_no_fail_line(monkeypatch, capsys):
    # a one-point time grid, set past Config's validation, is a bug in the
    # suite, not a failed criterion: it reaches the caller from the pool
    # worker (which takes the first task) before any criterion has printed
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ok = _cheap_runs()[0]
    bad = Config(n_bar=1.0, n_fock=8, t_max_us=0.5)
    bad.n_times = 1
    monkeypatch.setattr(acceptance, "_RUNS", (("bad", bad, False), ok))
    monkeypatch.setattr(acceptance, "_TRAJECTORIES", {})
    with pytest.raises(ValueError, match="t_grid needs at least an initial and one output time"):
        acceptance.run_all()
    assert "ACCEPTANCE" not in capsys.readouterr().out


def test_verify_pool_is_capped_at_the_runs_and_the_usable_cpus(monkeypatch, capsys, pool_sizes):
    # verify computes in its own process beside a pool one process smaller,
    # min(6, CPUs) processes in all
    fake = SimpleNamespace(stats=PropagationStats("Runge-Kutta", 0, 0.0, 0.0, 0.0, 0.0, 0.0))
    monkeypatch.setattr(acceptance, "_trajectory", lambda run: fake)
    monkeypatch.setattr(acceptance, "_CRITERIA", ())
    for cpus in (8, 2, 1):
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(acceptance, "_TRAJECTORIES", {})
        assert cli.main(["verify"]) == 0
    assert pool_sizes == [5, 1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 18
    assert err[0] == (
        "trajectory c6 undisplaced: d^2 = 2304, Runge-Kutta: 0 generator applications in 0 s (0 us each,"
        " 0 s reducing),"
        " top Fock level population at most 0"
    )


def test_gated_positivity_audit_matches_eigvalsh_at_every_output(monkeypatch):
    # evolve calls eigvalsh only when a Cholesky of rho - m I fails, m being
    # the running minimum: on each of verify's six trajectories its minimum
    # is that of an eigvalsh of every stored state, bit for bit, with
    # eigvalsh run at a few outputs only
    stored = functools.partial(dynamics.evolve, store_states=True)
    monkeypatch.setattr(dynamics, "evolve", stored)
    monkeypatch.setattr(acceptance, "evolve", stored)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    for run in acceptance._RUNS:
        calls.clear()
        traj = acceptance._trajectory(run)
        assert 1 <= len(calls) <= len(traj.times) // 10, run[0]
        assert traj.stats.min_eigenvalue == min(float(eigvalsh(rho)[0]) for rho in traj.states), run[0]
