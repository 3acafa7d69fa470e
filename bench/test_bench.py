"""Tests of the benchmark's own logic: span arithmetic, integrator counts,
seeded inputs and the correctness checks."""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
import pytest

import workloads

if str(workloads.SRC) not in sys.path:
    sys.path.insert(0, str(workloads.SRC))

import oracle  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from dressed_cool import acceptance, analysis, cli, config, dynamics, integrate, model  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    tree = [
        S("root", "cli", 0.0, 10.0, None, "r"),
        S("a", "model", 1.0, 3.0, 0, "r"),
        S("b", "model", 2.0, 5.0, 0, "r"),  # overlaps a: the union [1, 5] counts once
        S("c", "rates", 8.0, 12.0, 0, "r"),  # only [8, 10] lies inside the parent
        S("g", "rates", 2.5, 4.5, 2, "r"),  # grandchild: charged to b, not to root
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 4.0, 2.0])


def test_install_wraps_every_binding_and_uninstall_restores_them():
    originals = (dynamics.evolve, acceptance.evolve, acceptance._CRITERIA)
    rec = spans.install(spans.Recorder("t"))
    try:
        assert dynamics.evolve is acceptance.evolve is not originals[0]
        assert acceptance._CRITERIA[0] is acceptance.criterion_1
        assert acceptance._CRITERIA[0].__wrapped__ is originals[2][0]
        assert not rec.absent
    finally:
        rec.uninstall()
    assert (dynamics.evolve, acceptance.evolve, acceptance._CRITERIA) == originals


def test_missing_target_is_reported_absent():
    rec = spans.install(spans.Recorder("t"), targets=(("dynamics", "no_such_function"),))
    rec.uninstall()
    assert rec.absent == ["dynamics.no_such_function"]


def test_integrator_counts_satisfy_the_runge_kutta_identity(monkeypatch):
    attempts = []
    error_norm = integrate._error_norm
    monkeypatch.setattr(integrate, "_error_norm", lambda *a: attempts.append(1) or error_norm(*a))
    p = config.to_system_params(config.Config(n_fock=3))
    h, ls = model.build_hamiltonian_displaced(p), model.collapse_ops(p)
    rec = spans.install(spans.Recorder("t"))
    try:
        t_grid = np.linspace(0.0, 1.0, 6)
        dynamics.evolve(h, ls, model.turn_on_state(p), t_grid, store_states=False,
                        observables={"sz": np.diag([1.0] * 3 + [-1.0] * 3)})
        # A stiff scalar problem whose step growth overshoots and is rejected.
        integrate.integrate_adaptive(lambda t, y: -2000.0 * y, np.ones(1), [0.0, 0.01, 1.0])
    finally:
        rec.uninstall()
    c = rec.counters
    m = spans.layer_metrics(rec, wall_s=1.0)
    assert c["integrate.calls"] == 2
    assert c["integrate.rhs_evals"] == c["integrate.calls"] + 6 * len(attempts) + c["integrate.steps_accepted"]
    assert m["integrate.steps_rejected"] == len(attempts) - c["integrate.steps_accepted"] > 0
    assert m["integrate.max_state_dim"] == 36
    assert m["integrate.stored_state_mb"] == pytest.approx(6 * 36 * 16 / 2**20)
    assert m["dynamics.evolves"] == 1
    assert m["trace.accounted_s"] == pytest.approx(sum(s.duration for s in rec.spans if s.parent is None))
    # Every per-layer metric a traced run prints is declared, with its unit, in BENCHMARK.json.
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {x["name"] for x in declared} == {*m, "trace.overhead", "cli.csv_bytes", "sweep.pool_speedup"}


def test_seed_zero_is_the_canonical_grid_and_seeds_are_deterministic():
    base = config.Config()
    c0 = workloads.sweep_config("steady_map", 0)
    assert (c0["power_db_min"], c0["power_db_max"], c0["power_points"]) == (
        base.power_db_min, base.power_db_max, base.power_points)
    assert (c0["detuning_mhz_min"], c0["detuning_mhz_max"], c0["detuning_points"]) == (
        base.detuning_mhz_min, base.detuning_mhz_max, base.detuning_points)
    for name in ("steady_map", "cooling_map"):
        a, b = workloads.sweep_config(name, 7), workloads.sweep_config(name, 8)
        assert a == workloads.sweep_config(name, 7) and a != b
        step = (base.power_db_max - base.power_db_min) / (a["power_points"] - 1)
        assert 0.0 < a["power_db_min"] - base.power_db_min < workloads.SHIFT_MAX * step
        assert a["power_db_max"] - a["power_db_min"] == pytest.approx(base.power_db_max - base.power_db_min)
        assert workloads.oracle_rows(name, 7) == workloads.oracle_rows(name, 7)


def test_oracle_agrees_with_the_package_and_rejects_a_perturbed_state():
    p = oracle.point_params(workloads.sweep_config("steady_map", 3), 1.5, 2.0 * math.pi * 2.0)
    rho = dynamics.steady_state(model.build_hamiltonian_displaced(p), model.collapse_ops(p))
    v = analysis.bloch_vector(rho)
    assert oracle.deviation(p, (v.x, v.y, v.z)) < 1e-10
    assert oracle.deviation(p, (v.x, v.y + 1e-4, v.z)) > oracle.TOLERANCE
    assert oracle.deviation(p, (math.nan, v.y, v.z)) == math.inf


def test_sweep_check_fails_a_corrupted_row(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads._GRIDS, "steady_map", {"mode": "steady_tomography", "points": (2, 3)})
    monkeypatch.setattr(workloads, "STEADY_SAMPLE", 6)
    inputs = workloads.make_inputs("steady_map", 5, tmp_path)
    assert cli.main(inputs.argv) == 0
    good = workloads.check(inputs, 0, "")
    assert (good.attempted, good.failed, good.correct) == (6, 0, True)

    lines = inputs.csv.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln[0].isdigit() or ln[0] == "-")
    for column, value in ((3, lambda v: f"{float(v) + 1e-4:.9g}"), (8, lambda v: "false")):
        cells = lines[row].split(",")
        cells[column] = value(cells[column])
        inputs.csv.write_text("\n".join([*lines[:row], ",".join(cells), *lines[row + 1:]]) + "\n")
        bad = workloads.check(inputs, 0, "")
        assert (bad.failed, bad.correct) == (1, False)


def test_verify_check_needs_eight_passes():
    lines = [f"ACCEPTANCE {k} [name-{k}]: PASS - ok" for k in range(1, 9)]
    assert workloads.check(workloads.Inputs("verify", 0, ["verify"]), 0, "\n".join(lines)).correct
    lines[2] = "ACCEPTANCE 3 [name-3]: FAIL - off"
    out = workloads.check(workloads.Inputs("verify", 0, ["verify"]), 2, "\n".join(lines[:-1]))
    assert (out.attempted, out.failed, out.correct) == (8, 2, False)


def test_probe_samples_the_running_thread_and_scales_to_reference():
    speed = probe.SpeedProbe()
    with speed:
        t = time.perf_counter()
        while time.perf_counter() - t < 10 * probe.INTERVAL_S:
            pass
    assert len(speed.samples) >= 5 and len(speed.cold) == len(speed.samples)
    assert speed.scale([2.0 * probe.REF_S]) == pytest.approx(0.5)
