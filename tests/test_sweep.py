import functools
import json
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from dressed_cool import __version__, analysis, cli, model, sweep
from dressed_cool.config import Config, to_system_params
from dressed_cool.model import SystemParams, drive_for_photons
from dressed_cool.operators import space
from dressed_cool.rates import rates_general, steady_bloch
from dressed_cool.sweep import (
    SweepGrid,
    apply_tomography_scale,
    optimal_theta_detuning,
    parallel_map,
    resolve_workers,
    run_sweep,
)

TWO_PI = 2.0 * math.pi


def reference_params(**overrides) -> SystemParams:
    overrides.setdefault("thermal_qubit", False)
    return to_system_params(Config(**overrides))


def stark_line(grid: SweepGrid, chi: float) -> list[tuple[float, float]]:
    """Oracle: (P_d, delta_q) points where the Stark-shifted detuning
    vanishes, delta_q = -2 chi n_bar(P_d)."""
    return [
        (float(p_d), -2.0 * chi * 10.0 ** (p_d / 10.0))
        for p_d in np.atleast_1d(grid.power_db)
    ]


# ---------------------------------------------------------------------------
# grid construction


def test_grid_validation():
    base = reference_params()
    with pytest.raises(ValueError, match="non-empty"):
        SweepGrid(power_db=[], detuning=[0.0], fixed=base)
    with pytest.raises(ValueError, match="increasing"):
        SweepGrid(power_db=[0.0, -1.0], detuning=[0.0], fixed=base)
    with pytest.raises(ValueError, match="mode"):
        SweepGrid(power_db=[0.0], detuning=[0.0], fixed=base, mode="bogus")
    with pytest.raises(ValueError, match="theta"):
        SweepGrid(power_db=[0.0], detuning=[0.0], fixed=base, theta=4.0)


def test_rows_are_row_major():
    base = reference_params()
    grid = SweepGrid(
        power_db=[-3.0, 0.0], detuning=[-1.0, 0.0, 1.0], fixed=base,
        mode="rates_analytic_map",
    )
    table = run_sweep(grid)
    seen = [(r.p_d_db, r.delta_q) for r in table.rows]
    expected = [(p, d) for p in (-3.0, 0.0) for d in (-1.0, 0.0, 1.0)]
    assert seen == expected


# ---------------------------------------------------------------------------
# per-point physics


def test_point_power_and_stark_shift():
    # P_d = 10 log10(n_bar); each point evaluates the formulas at the
    # Stark-shifted detuning delta_q' = delta_q + 2 chi n_bar
    base = reference_params()
    delta_q = TWO_PI * 2.0
    grid = SweepGrid(
        power_db=[3.0], detuning=[delta_q], fixed=base, mode="rates_analytic_map",
    )
    row = run_sweep(grid).rows[0]
    n_bar = 10.0 ** 0.3
    assert row.n_bar == pytest.approx(n_bar, rel=1e-12)
    p_point = replace(
        base,
        eps_d=drive_for_photons(n_bar, base.delta_c, base.kappa),
        delta_q_prime=delta_q + 2.0 * base.chi * n_bar,
    )
    pair = rates_general(p_point)
    assert row.gamma_fit == pytest.approx(pair.total, rel=1e-12)
    theta_pt = math.atan2(p_point.omega_r_rabi, p_point.delta_q_prime)
    pred = steady_bloch(pair)
    assert row.sx == pytest.approx(pred.sigma_theta_ss * math.sin(theta_pt), rel=1e-12)


def test_undriven_point_maps_to_minus_inf_db():
    base = reference_params()
    grid = SweepGrid(
        power_db=[-math.inf, 0.0], detuning=[0.0], fixed=base,
        mode="rates_analytic_map",
    )
    rows = run_sweep(grid).rows
    assert rows[0].n_bar == 0.0
    assert sweep._point_params(grid, -math.inf, 0.0)[0].eps_d == 0.0
    assert rows[1].n_bar == pytest.approx(1.0, rel=1e-12)


def test_steady_mode_matches_direct_solve():
    base = reference_params()
    grid = SweepGrid(power_db=[0.0], detuning=[-2.0 * base.chi * 1.0], fixed=base)
    row = run_sweep(grid).rows[0]
    assert row.converged
    # this point restores delta_q' = 0: the resonantly dressed steady state
    assert row.sx == pytest.approx(0.9284439915500786, abs=1e-6)
    assert row.s_theta == pytest.approx(row.sx, rel=1e-12)  # theta defaults to 90 deg
    assert math.isnan(row.gamma_fit)


def test_cooling_rate_mode_fits_near_formula():
    base = reference_params()
    grid = SweepGrid(
        power_db=[10.0 * math.log10(0.25)], detuning=[-2.0 * base.chi * 0.25],
        fixed=base, mode="cooling_rate",
    )
    row = run_sweep(grid).rows[0]
    assert row.converged
    p_point = replace(
        base,
        eps_d=drive_for_photons(0.25, base.delta_c, base.kappa),
        delta_q_prime=0.0,
    )
    assert row.gamma_fit == pytest.approx(rates_general(p_point).total, rel=0.10)

    # every point of the 3x3 default-range grid yields a rate
    cfg = Config()
    grid = SweepGrid(
        power_db=np.linspace(cfg.power_db_min, cfg.power_db_max, 3),
        detuning=TWO_PI * np.linspace(cfg.detuning_mhz_min, cfg.detuning_mhz_max, 3),
        fixed=base, mode="cooling_rate",
    )
    rows = run_sweep(grid).rows
    assert [r.converged for r in rows] == [True] * 9
    assert all(r.gamma_fit > 0 for r in rows)


# ---------------------------------------------------------------------------
# determinism and failure isolation


def test_worker_count_does_not_change_results():
    base = reference_params()
    for mode in ("rates_analytic_map", "steady_tomography", "cooling_rate"):
        grid = SweepGrid(power_db=[-3.0, 0.0], detuning=[0.0, TWO_PI], fixed=base, mode=mode)
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        # repr compares every float exactly and lets the NaN gamma_fit of a
        # steady row equal its unpickled copy
        assert [repr(r) for r in serial.rows] == [repr(r) for r in parallel.rows], mode
        assert serial.metadata == parallel.metadata


def test_spawned_pool_worker_runs_blas_on_one_thread():
    # a spawned (or forkserver) worker does not inherit its parent's BLAS
    # setting, so the sweep pool's initializer sets it in every worker
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn, initializer=sweep._set_blas_threads) as pool:
        assert pool.submit(sweep._blas_threads).result(timeout=120) == 1


def test_serial_sweep_runs_blas_on_one_thread_and_restores_the_callers(monkeypatch):
    seen = []
    evaluate = sweep._evaluate_point

    def recording(*args):
        seen.append(sweep._blas_threads())
        return evaluate(*args)

    monkeypatch.setattr(sweep, "_evaluate_point", recording)
    before = sweep._blas_threads()
    run_sweep(SweepGrid(power_db=[0.0], detuning=[0.0], fixed=reference_params()))
    assert seen == [1]
    assert sweep._blas_threads() == before


def test_pool_is_capped_at_the_stacks_and_the_usable_cpus(monkeypatch, pool_sizes):
    # the caller computes beside a pool one process smaller, so on 4 CPUs
    # at most 3 pool processes start, and on 1 CPU none; a sweep's tasks
    # are its stacks of points, the last one possibly short
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    base = reference_params()

    def grid(points):
        return SweepGrid(power_db=[0.0], detuning=np.arange(points, dtype=float), fixed=base,
                         mode="rates_analytic_map")

    stack = sweep._STACK
    serial = run_sweep(grid(9 * stack), workers=1)
    assert pool_sizes == []
    assert run_sweep(grid(9 * stack), workers=5000).rows == serial.rows
    run_sweep(grid(2 * stack + 1), workers=5000)
    run_sweep(grid(9 * stack), workers=0)
    assert pool_sizes == [3, 2, 3]
    # one process computing is the serial path
    run_sweep(grid(stack), workers=5000)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    run_sweep(grid(9 * stack), workers=5000)
    assert pool_sizes == [3, 2, 3]


def test_pool_errors_reach_the_caller_with_their_type_and_message(monkeypatch):
    # a named numerical failure and a programming error raised in a pool
    # worker (which takes the first of two tasks) come back as themselves,
    # not as a pool error
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(model.TruncationError, match="n_fock = 8 holds population 0.5"):
        parallel_map(functools.partial(model.check_truncation, n_fock=8), [0.5, 0.0], workers=2)
    with pytest.raises(ValueError, match="worker count must be positive, got -2"):
        parallel_map(resolve_workers, [-2, 1], workers=2)


def test_pooled_map_keeps_task_order_and_raises_the_earliest_failure(monkeypatch):
    # a pool of one runs the first task and the caller the second; an error
    # comes back as itself from either, and of two the earlier task's, as
    # the serial path would raise it
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    values = list(range(-20, 20))
    assert parallel_map(abs, values, workers=0) == [abs(v) for v in values]
    with pytest.raises(model.TruncationError, match="n_fock = 8 holds population 0.5"):
        parallel_map(functools.partial(model.check_truncation, n_fock=8), [0.5, 0.0], workers=2)
    with pytest.raises(ValueError, match="worker count must be positive, got -2"):
        parallel_map(resolve_workers, [1, -2], workers=2)
    with pytest.raises(ValueError, match="worker count must be positive, got -3"):
        parallel_map(resolve_workers, [-3, -4], workers=2)


def test_pool_processes_are_forked_before_any_feeder_thread_starts(monkeypatch):
    # a child forked while another thread runs inherits whatever lock that
    # thread held, so under fork every pool process starts before
    # parallel_map starts a thread
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    threads_at_fork = []
    recording = [True]
    os.register_at_fork(before=lambda: recording[0] and threads_at_fork.append(threading.active_count()))
    before = threading.active_count()
    try:
        assert parallel_map(abs, list(range(-20, 20)), workers=0) == [abs(v) for v in range(-20, 20)]
    finally:
        recording[0] = False
    if multiprocessing.get_start_method() == "fork":
        assert threads_at_fork == [before, before]


def test_failed_point_is_isolated():
    # an undriven, dissipation-free qubit has no unique steady state; that
    # point must come back flagged instead of sinking the whole sweep
    base = replace(reference_params(), gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0)
    grid = SweepGrid(power_db=[-math.inf, 0.0], detuning=[0.0], fixed=base)
    rows = run_sweep(grid).rows
    assert not rows[0].converged
    assert math.isnan(rows[0].sx)
    assert rows[1].converged
    assert not math.isnan(rows[1].sx)


def test_steady_sweep_does_not_depend_on_stacks_or_workers(monkeypatch, tmp_path):
    # 35 points: not a multiple of the stack size, so the last stack is short
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert 35 % sweep._STACK
    paths = []
    for workers in (1, 2):
        cfg = tmp_path / f"sweep{workers}.json"
        cfg.write_text(json.dumps({"workers": workers, "power_points": 5, "detuning_points": 7}))
        paths.append(tmp_path / f"sweep{workers}.csv")
        assert cli.main(["sweep", "-c", str(cfg), "-o", str(paths[-1]), "--no-timestamp"]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    cfg = Config(power_points=5, detuning_points=7)
    grid = SweepGrid(power_db=np.linspace(cfg.power_db_min, cfg.power_db_max, 5),
                     detuning=TWO_PI * np.linspace(cfg.detuning_mhz_min, cfg.detuning_mhz_max, 7),
                     fixed=to_system_params(cfg))
    rows = run_sweep(grid).rows
    assert all(r.converged for r in rows)
    for r in rows:
        v = analysis.steady_point(sweep._point_params(grid, r.p_d_db, r.delta_q)[0])[0]
        assert max(abs(r.sx - v.x), abs(r.sy - v.y), abs(r.sz - v.z)) <= 1e-15
    for size in (1, 3, 16):
        monkeypatch.setattr(sweep, "_STACK", size)
        for r, again in zip(rows, run_sweep(grid).rows):
            assert max(abs(r.sx - again.sx), abs(r.sy - again.sy), abs(r.sz - again.sz)) <= 1e-15, size


def test_failures_stay_with_their_own_point(monkeypatch):
    # one map for every point: a qubit that only dephases, beside a cavity at
    # kappa/2pi = 0.2 MHz, with a point driven past n_fock 8's truncation and
    # one whose Rabi drive is too weak to lift the degeneracy of its populations
    base = replace(reference_params(kappa_mhz=0.2, delta_c_mhz=0.0, n_fock=8), gamma_down=0.0)
    grid = SweepGrid(power_db=[-20.0, -10.0, 10.0 * math.log10(3.31)], detuning=[0.0, TWO_PI],
                     fixed=base, auto_n_fock=False)
    ps = [sweep._point_params(grid, p_d, dq)[0] for p_d in grid.power_db for dq in grid.detuning[:1]]
    ps.insert(1, replace(ps[0], omega_r_rabi=1e-30))
    terms = [model.build_terms(p) for p in ps]
    maps = [analysis.dynamics._terms_map(t.n_fock, tuple(name for name, c in t.hamiltonian if c != 0.0), t.channels)
            for t in terms]
    assert all(m is maps[0] for m in maps)
    # with rate, every point also carries its probe, and the good ones their rate
    alone = {rate: [analysis.steady_points([p], rate=rate)[0] for p in ps] for rate in (False, True)}
    assert all(math.isnan(alone[False][i][2]) and alone[True][i][2] > 0.0 for i in (0, 2))

    def check(rate):
        points = analysis.steady_points(ps, rate=rate)
        assert isinstance(points[1], analysis.dynamics.MultipleSteadyStatesError)
        assert "degenerate" in str(points[1])
        assert isinstance(points[3], model.TruncationError)
        assert "n_fock = 8" in str(points[3])
        for i in (0, 2):
            assert points[i][:2] == alone[rate][i][:2]
            assert points[i][2] == alone[rate][i][2] if rate else math.isnan(points[i][2])

    for rate in (False, True):
        check(rate)
    # a singular block stops a stack's factorisation: the stack is solved
    # again point by point, with the same outcome for every point
    inv = np.linalg.inv

    def singular_stack(a):
        if a.ndim == 3 and a.shape[0] > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular_stack)
    for rate in (False, True):
        check(rate)
    monkeypatch.undo()

    # and a programming error inside the stacked solve is no failed point
    def broken(*args):
        raise TypeError("broken factorisation")

    monkeypatch.setattr(analysis.dynamics, "_block_factor", broken)
    for rate in (False, True):
        with pytest.raises(TypeError, match="broken factorisation"):
            analysis.steady_points(ps, rate=rate)
    with pytest.raises(TypeError, match="broken factorisation"):
        run_sweep(grid)


@pytest.mark.parametrize("mode", ["steady_tomography", "cooling_rate"])
def test_truncated_steady_point_fails(mode):
    # on the cavity resonance at kappa/2pi = 0.2 MHz the steady state needs
    # n_fock 31; a fixed 8 leaves 3.9e-3 in the top level, so that point is
    # a failed row while the weakly driven one converges
    base = reference_params(kappa_mhz=0.2, delta_c_mhz=0.0, n_fock=8)
    grid = SweepGrid(power_db=[-20.0, 10.0 * math.log10(3.31)], detuning=[0.0], fixed=base,
                     mode=mode, auto_n_fock=False)
    rows = run_sweep(grid).rows
    assert [r.converged for r in rows] == [True, False]
    assert math.isnan(rows[1].sx)


def test_programming_error_is_not_a_failed_point(monkeypatch):
    # only named numerical failures become NaN rows; a bug must surface.  A
    # sweep point's model is its coefficient list on the operator table
    def broken(p, frame="displaced"):
        raise TypeError("broken builder")

    monkeypatch.setattr(sweep.model, "hamiltonian_terms", broken)
    grid = SweepGrid(power_db=[0.0], detuning=[0.0], fixed=reference_params())
    with pytest.raises(TypeError, match="broken builder"):
        run_sweep(grid, workers=1)


@pytest.mark.parametrize("frame", model.FRAMES)
def test_sweep_hamiltonian_is_hermitian_by_construction(frame):
    # a sweep point forms no H, so nothing checks its Hermiticity: it holds
    # because every operator its terms name is exactly Hermitian and every
    # coefficient is real, and the builders' H is that sum bit for bit
    grid = SweepGrid(power_db=[-10.0, 0.0, 8.0], detuning=TWO_PI * np.array([-5.0, 15.0]),
                     fixed=reference_params())
    for p_d in grid.power_db:
        for dq in grid.detuning:
            p = sweep._point_params(grid, p_d, dq)[0]
            terms = model.build_terms(p, frame)
            for name, c in (*terms.hamiltonian, *analysis.dressed_probe_terms(p)):
                op = getattr(space(p.n_fock), name)
                assert np.array_equal(op, op.conj().T), name
                assert isinstance(c, float), name
            h = model.build_model(p, frame)[0]
            assert np.array_equal(h, h.conj().T)
            assert np.array_equal(h, space(p.n_fock).combine(terms.hamiltonian))


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-2)
    # 0 counts the CPUs this process may run on, not the host's
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert resolve_workers(0) == 1


# ---------------------------------------------------------------------------
# overlays and metadata


def test_stark_line_formula():
    base = reference_params()
    grid = SweepGrid(power_db=[-10.0, 0.0, 10.0], detuning=[0.0], fixed=base)
    line = stark_line(grid, base.chi)
    for (p_d, dq), expect_p in zip(line, (-10.0, 0.0, 10.0)):
        assert p_d == expect_p
        assert dq == pytest.approx(-2.0 * base.chi * 10.0 ** (p_d / 10.0), rel=1e-12)


def test_optimal_theta_detuning():
    delta_c = TWO_PI * 15.0
    omega = TWO_PI * 9.0
    assert optimal_theta_detuning(delta_c, omega) == pytest.approx(
        TWO_PI * 12.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        optimal_theta_detuning(TWO_PI * 9.0, TWO_PI * 9.0)
    with pytest.raises(ValueError):
        optimal_theta_detuning(TWO_PI * 5.0, TWO_PI * 9.0)


def test_tomography_scale():
    base = reference_params()
    grid = SweepGrid(power_db=[0.0], detuning=[0.0], fixed=base, mode="rates_analytic_map")
    table = run_sweep(grid)
    scaled = apply_tomography_scale(table, 0.8)
    again = apply_tomography_scale(scaled, 0.9)
    r0, r1, r2 = table.rows[0], scaled.rows[0], again.rows[0]
    assert r1.sx == pytest.approx(0.8 * r0.sx, rel=1e-12)
    assert r1.s_theta == pytest.approx(0.8 * r0.s_theta, rel=1e-12)
    assert r2.sx == pytest.approx(0.72 * r0.sx, rel=1e-12)
    assert r1.gamma_fit == r0.gamma_fit
    assert r1.p_d_db == r0.p_d_db
    assert table.metadata["tomography_scale"] == 1.0
    assert scaled.metadata["tomography_scale"] == pytest.approx(0.8)
    assert again.metadata["tomography_scale"] == pytest.approx(0.72)
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError):
            apply_tomography_scale(table, bad)


def test_metadata_records_the_fixed_point():
    base = reference_params()
    grid = SweepGrid(power_db=[0.0], detuning=[0.0], fixed=base, mode="rates_analytic_map")
    md = run_sweep(grid).metadata
    assert md["version"] == __version__
    assert md["mode"] == "rates_analytic_map"
    assert md["theta_deg"] == pytest.approx(90.0)
    assert md["chi_mhz"] == pytest.approx(-0.66)
    assert md["kappa_mhz"] == pytest.approx(4.3)
    assert md["omega_r_mhz"] == pytest.approx(9.0)
    assert md["delta_c_mhz"] == pytest.approx(-9.0)
    assert md["n_fock"] == "auto"
    grid_fixed = SweepGrid(
        power_db=[0.0], detuning=[0.0], fixed=base, mode="rates_analytic_map",
        auto_n_fock=False,
    )
    assert run_sweep(grid_fixed).metadata["n_fock"] == base.n_fock
    # only cooling_rate says where its gamma_fit column comes from
    assert "gamma_fit_method" not in md
    cooling = SweepGrid(power_db=[0.0], detuning=[0.0], fixed=base, mode="cooling_rate")
    assert run_sweep(cooling).metadata["gamma_fit_method"] == "liouvillian_spectrum"
