"""End-to-end checks of the package's headline physics claims.

Each test runs one criterion from the acceptance module and prints its
summary line, so `pytest -v` shows one pass/fail line per claim.
"""

from dressed_cool import acceptance
from dressed_cool.analysis import cooling_trajectory
from dressed_cool.config import Config, to_system_params


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
    monkeypatch.setattr(acceptance, "_c1_runs", lambda: [(4.0, p, bad, None, None)])
    monkeypatch.setattr(acceptance, "_c3_run", lambda: (p, bad))
    monkeypatch.setattr(acceptance, "_c6_frame_runs", lambda: (0j, {}))
    result = acceptance.criterion_7()
    assert not result.passed
    assert "max top Fock level population = 6.27e-02 (tol 1e-04)" in result.detail
