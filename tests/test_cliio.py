import json
import math
import re
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from dressed_cool import acceptance, analysis, dynamics, model, sweep
from dressed_cool.cli import (
    CSV_COLUMNS,
    main,
    read_trajectory_csv,
    write_csv,
    write_trajectory_csv,
)
from dressed_cool.config import Config, parse_config, to_system_params
from dressed_cool.sweep import SweepGrid, SweepRow, SweepTable, run_sweep

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_is_reference_point():
    c = parse_config("{}")
    assert c == Config()
    assert c.chi_mhz == -0.66
    assert c.kappa_mhz == 4.3
    assert c.omega_r_mhz == 9.0
    assert c.delta_c_mhz == -9.0
    assert c.t1_us == 10.0
    assert c.t2_us == 10.6
    # serial by default, as run_sweep is
    assert c.workers == 1
    # null leaves an optional key at its default
    assert parse_config('{"n_fock": null, "t_max_us": null}') == Config()


def test_config_roundtrip_identity():
    cases = [
        Config(),
        Config(kappa_mhz=0.2, n_bar=3.31),
        Config(n_bar=2.0, n_fock=14, t_max_us=5.0),
        Config(thermal_qubit=True, mode="cooling_rate", workers=3),
    ]
    for c in cases:
        # every set key as JSON
        data = {k: v for k, v in asdict(c).items() if v is not None}
        assert parse_config(json.dumps(data)) == c


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: alpha, zeta"):
        parse_config('{"zeta": 1, "alpha": 2}')


def test_config_type_errors_name_the_key():
    wrong = {
        "chi_mhz": "fast", "kappa_mhz": "fast", "omega_r_mhz": [9.0], "delta_c_mhz": True,
        "delta_q_prime_mhz": "0", "n_bar": {}, "t1_us": "10",
        "t2_us": False, "thermal_qubit": 1, "n_fock": 8.5, "frame": 7, "initial_state": 0,
        "t_max_us": "long", "n_times": 100.0, "mode": ["cooling_rate"], "theta_deg": "90",
        "tomography_scale": None, "power_db_min": "low", "power_db_max": None,
        "power_points": 2.5, "detuning_mhz_min": "-5", "detuning_mhz_max": True,
        "detuning_points": "41", "workers": 1.5,
    }
    assert set(wrong) == {f.name for f in fields(Config)}
    for key, value in wrong.items():
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            parse_config(json.dumps({key: value}))


def test_config_rejects_non_finite_numbers():
    # JSON NaN and Infinity pass every comparison-based range check
    float_keys = [f.name for f in fields(Config) if f.type.startswith("float")]
    assert "t_max_us" in float_keys and "power_db_min" in float_keys
    for key in float_keys:
        for value in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ValueError, match=f"config key '{key}' must be finite"):
                parse_config(f'{{"{key}": {value}}}')


@pytest.mark.parametrize("key, raw", [
    pytest.param("kappa_mhz", {"kappa_mhz": -1}, id="kappa_mhz"),
    pytest.param("n_bar", {"n_bar": -0.5}, id="n_bar"),
    pytest.param("t1_us", {"t1_us": 0}, id="t1_us"),
    pytest.param("t2_us", {"t2_us": 0}, id="t2_us-positive"),
    pytest.param("t2_us", {"t1_us": 5, "t2_us": 11}, id="t2_us-above-2-t1_us"),
    pytest.param("n_fock", {"n_fock": 1}, id="n_fock"),
    pytest.param("frame", {"frame": "lab"}, id="frame"),
    pytest.param("mode", {"mode": "lindblad"}, id="mode"),
    pytest.param("initial_state", {"initial_state": "sideways"}, id="initial_state"),
    pytest.param("theta_deg", {"theta_deg": 200}, id="theta_deg"),
    pytest.param("tomography_scale", {"tomography_scale": 0}, id="tomography_scale"),
    pytest.param("t_max_us", {"t_max_us": 0}, id="t_max_us"),
    pytest.param("n_times", {"n_times": 1}, id="n_times"),
    pytest.param("power_points", {"power_points": 0}, id="power_points"),
    pytest.param("detuning_points", {"detuning_points": 0}, id="detuning_points"),
    pytest.param("power_db_max", {"power_db_min": 2.0, "power_db_max": 2.0}, id="power_db_max"),
    pytest.param("detuning_mhz_max", {"detuning_mhz_min": 3.0, "detuning_mhz_max": -3.0},
                 id="detuning_mhz_max"),
    pytest.param("workers", {"workers": -1}, id="workers"),
])
def test_config_range_errors_name_the_key(key, raw):
    # one case per range clause of config._validate, each the only value
    # out of range
    with pytest.raises(ValueError, match=re.escape(f"config key {key!r} ")):
        parse_config(json.dumps(raw))


def test_config_frame_error_lists_the_model_frames():
    with pytest.raises(ValueError, match=re.escape(f"must be one of {model.FRAMES}")):
        parse_config('{"frame": "lab"}')


def test_config_initial_state_error_lists_the_model_states():
    with pytest.raises(ValueError, match=re.escape(f"must be one of {model.INITIAL_STATES}")):
        parse_config('{"initial_state": "sideways"}')


def test_config_has_one_drive_key():
    # n_bar sets the drive; a drive amplitude key would restate it
    for text in ('{"eps_d_mhz": 9.0}', '{"eps_d_mhz": null, "n_bar": 2.0}'):
        with pytest.raises(ValueError, match="unknown config keys: eps_d_mhz$"):
            parse_config(text)


def test_config_rejects_non_object_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_config("{kappa_mhz:")
    with pytest.raises(ValueError, match="flat JSON object"):
        parse_config("[1, 2]")


def test_unit_conversion_happens_once():
    p = to_system_params(Config())
    assert p.chi == pytest.approx(TWO_PI * -0.66, rel=1e-15)
    assert p.kappa == pytest.approx(TWO_PI * 4.3, rel=1e-15)
    assert p.omega_r_rabi == pytest.approx(TWO_PI * 9.0, rel=1e-15)
    assert p.delta_c == pytest.approx(TWO_PI * -9.0, rel=1e-15)
    # the drive amplitude sustains the configured photon number
    assert model.n_bar_of(p) == pytest.approx(1.0, rel=1e-12)


def test_thermal_qubit_split():
    p = to_system_params(Config(thermal_qubit=True))
    assert p.gamma_down + p.gamma_up == pytest.approx(0.1, rel=1e-12)
    assert p.gamma_up / (p.gamma_down + p.gamma_up) == pytest.approx(
        14.0 / 91.0, rel=1e-12
    )
    cold = to_system_params(Config(thermal_qubit=False))
    assert cold.gamma_up == 0.0
    assert cold.gamma_down == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# sweep CSV


def _read_sweep_csv(path):
    """Header and rows of a sweep CSV as strings; no package code reads one."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _tiny_table():
    base = to_system_params(Config(thermal_qubit=False))
    grid = SweepGrid(
        power_db=[-3.0, 0.0], detuning=[0.0, TWO_PI], fixed=base,
        mode="rates_analytic_map",
    )
    return run_sweep(grid)


def test_csv_roundtrip(tmp_path):
    table = _tiny_table()
    path = tmp_path / "t.csv"
    write_csv(table, str(path), no_timestamp=True)
    header, cells = _read_sweep_csv(path)
    lines = path.read_text().splitlines()
    assert "# mode=rates_analytic_map" in lines
    assert "# kappa_mhz=4.3" in lines
    assert tuple(header) == CSV_COLUMNS
    assert len(cells) == len(table.rows)
    for orig, line in zip(table.rows, cells):
        parsed = dict(zip(header, line))
        assert float(parsed["p_d_db"]) == pytest.approx(orig.p_d_db, rel=1e-8)
        assert TWO_PI * float(parsed["delta_q_mhz"]) == pytest.approx(orig.delta_q, rel=1e-8, abs=1e-12)
        assert float(parsed["n_bar"]) == pytest.approx(orig.n_bar, rel=1e-8)
        assert float(parsed["sx"]) == pytest.approx(orig.sx, rel=1e-8)
        assert float(parsed["s_theta"]) == pytest.approx(orig.s_theta, rel=1e-8)
        assert float(parsed["gamma_fit"]) == pytest.approx(orig.gamma_fit, rel=1e-8)
        assert parsed["converged"] == ("true" if orig.converged else "false")


def test_csv_layout(tmp_path):
    table = SweepTable(
        rows=[SweepRow(
            p_d_db=0.0, delta_q=TWO_PI * 0.123456789123, n_bar=1.0,
            sx=0.5, sy=0.0, sz=-0.25, s_theta=0.5,
            gamma_fit=math.nan, converged=True, n_fock=8,
        )],
        metadata={"kappa_mhz": 4.3, "mode": "steady_tomography"},
    )
    path = tmp_path / "layout.csv"
    write_csv(table, str(path), no_timestamp=True)
    raw = path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# dressed-cool ")
    assert "# kappa_mhz=4.3" in lines
    assert "# mode=steady_tomography" in lines
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == ",".join(CSV_COLUMNS)
    # nine significant digits, locale-independent decimal point
    assert lines[header_idx + 1].split(",")[1] == "0.123456789"
    assert lines[header_idx + 1].split(",")[-1] == "true"


def test_csv_empty_table(tmp_path):
    table = SweepTable(rows=[], metadata={"kappa_mhz": 4.3})
    path = tmp_path / "empty.csv"
    write_csv(table, str(path), no_timestamp=True)
    lines = path.read_text().strip().split("\n")
    assert lines[-1] == ",".join(CSV_COLUMNS)
    assert _read_sweep_csv(path) == (list(CSV_COLUMNS), [])


def test_csv_byte_stability(tmp_path):
    table = _tiny_table()
    p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    write_csv(table, str(p1), no_timestamp=True)
    write_csv(table, str(p2), no_timestamp=True)
    assert p1.read_bytes() == p2.read_bytes()
    write_csv(table, str(p3), no_timestamp=False)
    assert "# written=" in p3.read_text()


def test_csv_header_validation(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# only=metadata\n")
    with pytest.raises(ValueError, match="no header"):
        read_trajectory_csv(str(empty))


def test_trajectory_roundtrip(tmp_path):
    t = np.linspace(0.0, 1.0, 11)
    cols = {"sx": np.cos(t), "sz": np.sin(t)}
    path = tmp_path / "traj.csv"
    write_trajectory_csv(t, cols, {"n_bar": 1.0}, str(path), no_timestamp=True)
    back = read_trajectory_csv(str(path))
    assert "# n_bar=1" in path.read_text().splitlines()
    assert list(back) == ["t_us", "sx", "sz"]
    assert np.allclose(back["t_us"], t, rtol=1e-8)
    assert np.allclose(back["sx"], np.cos(t), rtol=1e-8)
    assert np.allclose(back["sz"], np.sin(t), rtol=1e-8)


def test_trajectory_columns_must_match_times(tmp_path):
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        write_trajectory_csv(t, {"sx": t[:-1]}, {}, str(tmp_path / "ragged.csv"))


def test_trajectory_requires_rows(tmp_path):
    path = tmp_path / "empty_traj.csv"
    path.write_text("# a=1\nt_us,sx\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_trajectory_csv(str(path))
    # a ragged or non-numeric row is named by file and line, not by numpy
    path.write_text("# a=1\nt_us,sx\n0,1\n1\n")
    with pytest.raises(ValueError, match=r"empty_traj\.csv, line 4: 1 cells, the header has 2$"):
        read_trajectory_csv(str(path))
    path.write_text("# a=1\nt_us,sx\n\n0,1\n1,abc\n")
    with pytest.raises(ValueError, match=r"empty_traj\.csv, line 5: could not convert string to float: 'abc'$"):
        read_trajectory_csv(str(path))


# ---------------------------------------------------------------------------
# CLI dispatch and exit codes


def test_cli_rates_defaults(capsys):
    assert main(["rates"]) == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(" = ") for line in out.strip().split("\n") if " = " in line
    )
    assert float(values["gamma_minus_per_us"]) == pytest.approx(2.593, abs=1e-3)
    assert float(values["gamma_plus_per_us"]) == pytest.approx(0.0830, abs=1e-4)
    assert float(values["sigma_theta_ss"]) == pytest.approx(0.938, abs=1e-3)
    assert values["regime"] == "general"


def test_cli_runs_blas_on_one_thread(capsys):
    # the CLI's parallelism is the sweep's worker processes only; numpy's
    # wheels ship OpenBLAS, so a helper that silently finds none fails here
    before = sweep._blas_threads()
    assert before is not None, "numpy's OpenBLAS was not found"
    try:
        assert main(["rates"]) == 0
        assert sweep._blas_threads() == 1
        assert sweep._set_blas_threads() == 1
    finally:
        sweep._set_blas_threads(before)


def test_cli_rates_agree_with_steady_on_the_blue_side(capsys, tmp_path):
    # delta_c = +Omega_R inverts the dressed state; the rate formula must see
    # that at every detuning, not only where delta_c = -Omega_R
    cfg = tmp_path / "blue.json"
    cfg.write_text('{"delta_c_mhz": 9}')
    assert main(["rates", "-c", str(cfg)]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().split("\n") if " = " in line)
    assert main(["steady", "-c", str(cfg)]) == 0
    steady_sx = json.loads(capsys.readouterr().out)["sx"]
    sigma_theta = float(values["sigma_theta_ss"])
    assert sigma_theta < 0
    assert sigma_theta == pytest.approx(steady_sx, abs=0.03)


def test_cli_steady_json(capsys):
    assert main(["steady"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sx"] == pytest.approx(0.9284, abs=2e-3)
    assert abs(payload["sy"]) <= 0.01
    assert payload["tomography_scale"] == 1.0
    # how close the truncation came to its edge; the default point
    # (|beta| = 0.07) meets the cutoff's error target at n_fock 5
    assert payload["n_fock"] == 5
    assert 0.0 < payload["top_fock_population"] <= model.TRUNCATION_TOL


def test_cli_steady_sizes_for_the_steady_state_and_gates_the_truncation(capsys, tmp_path):
    # on the cavity resonance the steady state needs n_fock 31 whatever
    # initial_state says; forced to 8, its top level holds 3.9e-3
    cfg = tmp_path / "cfg.json"
    point = {"kappa_mhz": 0.2, "n_bar": 3.31, "delta_c_mhz": 0.0}
    cfg.write_text(json.dumps({**point, "n_fock": 8}))
    assert main(["steady", "-c", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: cavity truncation" in err
    assert "n_fock = 8 holds population 0.0039" in err
    # criterion 3's strong coupling (coupling ratio 6) leaves a trajectory's
    # cutoff from |g> to the linear rule, 8, and the steady state's too
    cfg.write_text(json.dumps({"kappa_mhz": 0.2, "n_bar": 3.31, "initial_state": "ground"}))
    assert main(["steady", "-c", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["n_fock"] == 8


def test_cli_evolve_sizes_turn_on_and_gates_the_truncation(capsys, tmp_path):
    # turn-on at n_bar = 4 starts d in the coherent state -a_bar, which n_fock
    # 8 truncates: its top level holds 0.0627.  The rule sizes for it, and a
    # forced 8 is a numerical failure with no trajectory written.
    cfg = tmp_path / "cfg.json"
    traj = tmp_path / "traj.csv"
    cfg.write_text(json.dumps({"n_bar": 4, "t_max_us": 0.5, "n_times": 51}))
    assert main(["evolve", "-c", str(cfg), "-o", str(traj), "--no-timestamp"]) == 0
    top = float(re.search(r"population at most (\S+) \(tol 1e-04\)", capsys.readouterr().out).group(1))
    assert 0.0 < top <= model.TRUNCATION_TOL
    assert "# n_fock=15\n" in traj.read_text()
    traj.unlink()
    cfg.write_text(json.dumps({"n_bar": 4, "t_max_us": 0.5, "n_times": 51, "n_fock": 8}))
    assert main(["evolve", "-c", str(cfg), "-o", str(traj), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: cavity truncation" in err
    assert "n_fock = 8 holds population 0.0627" in err
    assert not traj.exists()


def test_cli_evolve_gates_positivity(capsys, tmp_path, monkeypatch):
    # a trajectory whose smallest eigenvalue is below the floor is a
    # numerical failure, named by that eigenvalue, with no trajectory written
    times = np.linspace(0.0, 1.0, 3)
    stats = dynamics.PropagationStats(propagator="Runge-Kutta", generator_applications=0, wall_s=0.0, reduce_s=0.0,
                                      top_fock_population=0.0, max_trace_deviation=0.0,
                                      min_eigenvalue=-2.5e-6)
    monkeypatch.setattr(analysis, "config_trajectory",
                        lambda p, cfg: dynamics.Trajectory(times, stats, {"sx": np.zeros(3)}))
    cfg, traj = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps({"t_max_us": 1.0, "n_times": 3}))
    assert main(["evolve", "-c", str(cfg), "-o", str(traj), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: trajectory state has eigenvalue -2.500e-06, below the floor -1e-07" in err
    assert not traj.exists()


def test_cli_undisplaced_cutoff_is_judged_by_the_gate_alone(capsys, tmp_path):
    # the lab-frame builder takes the given cutoff without a rule of its own:
    # n_fock 8 at n_bar = 3.6 fails on the truncation gate, with no warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame": "undisplaced", "n_bar": 3.6, "n_fock": 8}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["steady", "-c", str(cfg)]) == 2
    assert caught == []
    assert "numerical failure: cavity truncation: the top Fock level of n_fock = 8" in capsys.readouterr().err


def test_cli_usage_errors(capsys, tmp_path):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["rates", "-c", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["rates", "-c", str(bad)]) == 1
    assert "JSON" in capsys.readouterr().err
    # a NaN end time used to write a trajectory that never evolved
    bad.write_text('{"t_max_us": NaN, "n_times": 5}')
    traj = tmp_path / "traj.csv"
    assert main(["evolve", "-c", str(bad), "-o", str(traj)]) == 1
    assert "'t_max_us' must be finite" in capsys.readouterr().err
    assert not traj.exists()


def test_cli_evolve_then_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_times": 301}))
    traj = tmp_path / "traj.csv"
    assert main(["evolve", "-c", str(cfg), "-o", str(traj), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(
        rf"wrote 301 samples over [0-9.]+ us to {re.escape(str(traj))}; Runge-Kutta: [0-9]+ generator"
        r" applications in [0-9.e+-]+ s \([0-9.e+-]+ us each, [0-9.e+-]+ s reducing\),"
        r" top Fock level population at most [0-9.e+-]+"
        r" \(tol 1e-04\)\n", out)
    out_json = tmp_path / "fit.json"
    assert main(["fit", "-i", str(traj), "--column", "sx", "-o", str(out_json)]) == 0
    fit = json.loads(out_json.read_text())
    assert fit["rate_per_us"] == pytest.approx(2.676, rel=0.10)
    assert main(["fit", "-i", str(traj), "--column", "nope"]) == 1
    assert main(["spectrum", "-i", str(traj), "--column", "nope"]) == 1
    assert capsys.readouterr().err.count("no column 'nope'") == 2
    no_time = tmp_path / "no_time.csv"
    no_time.write_text("t,sx\n0,1\n1,0.5\n")
    assert main(["fit", "-i", str(no_time)]) == 1
    assert "no column 't_us'" in capsys.readouterr().err


def test_cli_fit_oscillation_is_numerical_failure(tmp_path, capsys):
    t = np.arange(0.0, 20.0, 0.01)
    path = tmp_path / "osc.csv"
    write_trajectory_csv(
        t, {"sx": np.cos(TWO_PI * 2.4 * t)}, {}, str(path), no_timestamp=True
    )
    assert main(["fit", "-i", str(path)]) == 2
    assert main(["spectrum", "-i", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frequency_mhz"] == pytest.approx(2.4, abs=0.005)


def test_cli_spectrum_flat_is_numerical_failure(tmp_path, capsys):
    t = np.linspace(0.0, 10.0, 256)
    path = tmp_path / "flat.csv"
    write_trajectory_csv(t, {"sx": np.ones_like(t)}, {}, str(path), no_timestamp=True)
    assert main(["spectrum", "-i", str(path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "spectrum"])
@pytest.mark.parametrize("column", ["t_us", "sx"])
def test_cli_rejects_a_non_finite_sample(tmp_path, capsys, command, column):
    # a NaN cell passes every comparison of a fit or a peak search, so it is
    # bad input (exit 1), not a printed NaN or a numerical failure
    t = np.linspace(0.0, 10.0, 256)
    cols = {"t_us": t, "sx": np.exp(-t) * np.cos(TWO_PI * 2.4 * t)}
    cols[column] = cols[column].copy()
    cols[column][100] = math.nan
    path = tmp_path / "nan.csv"
    write_trajectory_csv(cols["t_us"], {"sx": cols["sx"]}, {}, str(path), no_timestamp=True)
    assert "nan" in path.read_text()
    assert main([command, "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: times and values must be finite; found NaN or infinity\n"


@pytest.mark.parametrize("command", ["fit", "spectrum"])
@pytest.mark.parametrize("defect", ["swapped", "repeated"])
def test_cli_rejects_times_out_of_order(tmp_path, capsys, command, defect):
    # two samples out of order once read as "not a single exponential"
    # (exit 2) and a repeated time was fitted; both are bad input
    t = np.linspace(0.0, 10.0, 256)
    sx = np.exp(-t) * np.cos(TWO_PI * 2.4 * t)
    if defect == "swapped":
        t[[100, 101]] = t[[101, 100]]
    else:
        t[101] = t[100]
    path = tmp_path / "unordered.csv"
    write_trajectory_csv(t, {"sx": sx}, {}, str(path), no_timestamp=True)
    assert main([command, "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: times must be strictly increasing\n"


def test_cli_sweep_reruns_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "rates_analytic_map",
        "power_points": 2, "detuning_points": 2,
        "power_db_min": -3.0, "power_db_max": 0.0,
        "detuning_mhz_min": 0.0, "detuning_mhz_max": 5.0,
        "workers": 1,
    }))
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "-c", str(cfg), "-o", str(out1), "--no-timestamp"]) == 0
    assert main(["sweep", "-c", str(cfg), "-o", str(out2), "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_counts_its_points_by_cutoff_on_stderr(tmp_path, capsys, monkeypatch, pool_sizes):
    # after the CSV, one stderr line counts the points at each cavity
    # cutoff: the power rows -10, -1 and 8 dB take 5, 5 and 7.  The CSV,
    # stdout and that line are the same on one worker and on two (three
    # stacks); a fixed n_fock puts every point at it, and the analytic
    # rates, which have no cutoff, print no line
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    grid = {"power_points": 3, "detuning_points": 5}
    runs = []
    for workers in (1, 2):
        cfg, out = tmp_path / "cfg.json", tmp_path / f"w{workers}.csv"
        cfg.write_text(json.dumps({**grid, "workers": workers}))
        assert main(["sweep", "-c", str(cfg), "-o", str(out), "--no-timestamp"]) == 0
        captured = capsys.readouterr()
        runs.append((out.read_bytes(), captured.out.replace(str(out), "<csv>"), captured.err))
    assert pool_sizes == [1]
    assert runs[0] == runs[1]
    assert runs[0][2] == "cutoffs: n_fock 5 x 10, 7 x 5\n"
    cfg.write_text(json.dumps({**grid, "n_fock": 6}))
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--no-timestamp"]) == 0
    assert capsys.readouterr().err == "cutoffs: n_fock 6 x 15\n"
    cfg.write_text(json.dumps({**grid, "mode": "rates_analytic_map"}))
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--no-timestamp"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_sweep_applies_the_tomography_scale(tmp_path, capsys):
    # at tomography_scale 0.8 the state columns of a sweep are 0.8 times the
    # unscaled run's, every other column is the same, and the metadata
    # records the scale
    grid = {
        "mode": "rates_analytic_map",
        "power_points": 2, "detuning_points": 2,
        "power_db_min": -3.0, "power_db_max": 0.0,
        "detuning_mhz_min": 0.0, "detuning_mhz_max": 5.0,
    }
    tables = []
    for scale in (1.0, 0.8):
        cfg, out = tmp_path / "cfg.json", tmp_path / f"scale{scale}.csv"
        cfg.write_text(json.dumps({**grid, "tomography_scale": scale}))
        assert main(["sweep", "-c", str(cfg), "-o", str(out), "--no-timestamp"]) == 0
        tables.append(_read_sweep_csv(out))
    assert "# tomography_scale=0.8\n" in out.read_text()
    (header, plain), (_, scaled) = tables
    assert len(plain) == len(scaled) == 4
    for row, scaled_row in zip(plain, scaled):
        for name, a, b in zip(header, row, scaled_row):
            if name in ("sx", "sy", "sz", "s_theta"):
                assert float(b) == pytest.approx(0.8 * float(a), rel=1e-8, abs=1e-15), name
            else:
                assert b == a, name


def test_cli_sweep_rejects_a_frame_it_would_ignore(tmp_path, capsys):
    # every sweep point is built in the displaced frame, so a config that
    # asks for another frame is refused rather than silently ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame": "undisplaced", "power_points": 2, "detuning_points": 2}))
    out = tmp_path / "s.csv"
    assert main(["sweep", "-c", str(cfg), "-o", str(out)]) == 1
    assert "config key 'frame' must be 'displaced' for a sweep, got 'undisplaced'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_rejects_a_config_it_would_ignore(tmp_path, capsys, monkeypatch):
    # the suite's operating points are fixed, so -c is a usage error and
    # nothing runs
    def not_run():
        raise AssertionError("the acceptance suite ran")

    monkeypatch.setattr(acceptance, "run_all", not_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["verify", "-c", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: -c" in captured.err


def test_cli_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "rates_analytic_map",
        "power_points": 1, "detuning_points": 1,
        "power_db_min": 0.0, "detuning_mhz_min": 0.0,
        "workers": 1,
    }))
    assert main(["sweep", "-c", str(cfg), "--no-timestamp"]) == 0
    assert (tmp_path / "sweep.csv").exists()
