"""Command-line interface and CSV serialization.

Subcommands: rates, evolve, steady, sweep, fit, spectrum, verify.
Exit codes: 0 success, 1 validation error (bad arguments, config, or input
files), 2 numerical failure (stiff integration, degenerate steady states,
unconverged spectral rates, a cavity truncation past its tolerance, failed
fits or acceptance checks).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import analysis, config, model, rates, sweep
from .model import TWO_PI

CSV_COLUMNS = ("p_d_db", "delta_q_mhz", "n_bar", "sx", "sy", "sz", "s_theta", "gamma_fit", "converged")


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through our exit-code scheme."""

    def error(self, message):
        raise _UsageError(self, message)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _write_table(path: str, metadata: dict, header, rows, no_timestamp: bool) -> None:
    """The one CSV layout: '#' metadata lines, the header, then one line per
    row with floats at 9 significant digits, LF line endings."""
    lines = [f"# dressed-cool {__version__}"]
    lines += [f"# {key}={_fmt(value)}" for key, value in metadata.items()]
    if not no_timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# written={stamp}")
    lines.append(",".join(header))
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(table: sweep.SweepTable, path: str, no_timestamp: bool = False) -> None:
    """Serialize a sweep table, one row per grid point in CSV_COLUMNS order."""
    rows = (
        (r.p_d_db, r.delta_q / TWO_PI, r.n_bar, r.sx, r.sy, r.sz, r.s_theta, r.gamma_fit, r.converged)
        for r in table.rows
    )
    _write_table(path, table.metadata, CSV_COLUMNS, rows, no_timestamp)


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of a CSV written by write_trajectory_csv, by header name.
    '#' lines are skipped; a row whose length differs from the header's or
    whose cell is not a float is reported with its line number."""
    header: list[str] | None = None
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = cells
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}, line {lineno}: {len(cells)} cells, the header has {len(header)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: no header row found")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    return {name: data[:, j] for j, name in enumerate(header)}


def write_trajectory_csv(
    times: np.ndarray,
    columns: dict[str, np.ndarray],
    metadata: dict,
    path: str,
    no_timestamp: bool = False,
) -> None:
    """Serialize a trajectory: a t_us column, then the real part of each column."""
    data = [np.asarray(times, dtype=float), *(np.real(c).astype(float) for c in columns.values())]
    _write_table(path, metadata, ["t_us", *columns], zip(*data, strict=True), no_timestamp)


def _load_config(args) -> config.Config:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return config.parse_config(fh.read())
    return config.Config()


def _emit(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- subcommands

def _cmd_rates(args) -> int:
    cfg = _load_config(args)
    p = config.to_system_params(cfg)
    pair = rates.rates_general(p)
    theta, _, omega_tilde = rates.dressed_angle(p)
    pred = rates.steady_bloch(pair)
    t_eff = rates.effective_temperature(pred.purity_plus, omega_tilde)
    ratio, ok = rates.cooling_condition(p)
    lines = [
        f"n_bar = {_fmt(model.n_bar_of(p))}",
        f"regime = {pair.regime}",
        f"gamma_minus_per_us = {_fmt(pair.gamma_minus)}",
        f"gamma_plus_per_us = {_fmt(pair.gamma_plus)}",
        f"gamma_total_per_us = {_fmt(pair.total)}",
        f"sigma_theta_ss = {_fmt(pred.sigma_theta_ss)}",
        f"purity_plus = {_fmt(pred.purity_plus)}",
        f"theta_deg = {_fmt(math.degrees(theta))}",
        f"omega_tilde_mhz = {_fmt(omega_tilde / TWO_PI)}",
        f"t_eff_uk = {_fmt(t_eff * 1e6)}" + (" (inverted)" if t_eff < 0 else ""),
        f"cooling_ratio = {_fmt(ratio)}" + ("" if ok else " (below threshold)"),
    ]
    _emit("\n".join(lines), args)
    return 0


def _config_metadata(cfg: config.Config, p: model.SystemParams) -> dict:
    return {
        "frame": cfg.frame,
        "chi_mhz": cfg.chi_mhz,
        "kappa_mhz": cfg.kappa_mhz,
        "omega_r_mhz": cfg.omega_r_mhz,
        "delta_c_mhz": cfg.delta_c_mhz,
        "delta_q_prime_mhz": cfg.delta_q_prime_mhz,
        "n_bar": model.n_bar_of(p),
        "n_fock": p.n_fock,
        "gamma_down_per_us": p.gamma_down,
        "gamma_up_per_us": p.gamma_up,
        "gamma_phi_per_us": p.gamma_phi,
    }


def _cmd_evolve(args) -> int:
    cfg = _load_config(args)
    p = config.to_system_params(cfg)
    traj = analysis.config_trajectory(p, cfg)

    stats = traj.stats
    model.check_truncation(stats.top_fock_population, p.n_fock)
    out = args.output or "trajectory.csv"
    write_trajectory_csv(traj.times, traj.expectations, _config_metadata(cfg, p), out,
                         no_timestamp=args.no_timestamp)
    print(
        f"wrote {len(traj.times)} samples over {traj.times[-1]:.6g} us to {out};"
        f" {stats.generator_applications} generator applications in {stats.wall_s:.3g} s,"
        f" top Fock level population at most {stats.top_fock_population:.3g}"
        f" (tol {model.TRUNCATION_TOL:.0e})"
    )
    return 0


def _cmd_steady(args) -> int:
    cfg = _load_config(args)
    p = config.to_system_params(cfg, steady=True)
    v, top, _ = analysis.steady_point(p, cfg.frame)
    theta = math.radians(cfg.theta_deg)
    s = cfg.tomography_scale
    payload = {
        "n_bar": model.n_bar_of(p),
        "sx": v.x * s,
        "sy": v.y * s,
        "sz": v.z * s,
        "theta_deg": cfg.theta_deg,
        "s_theta": analysis.sigma_theta_projection(v, theta) * s,
        "tomography_scale": s,
        "n_fock": p.n_fock,
        "top_fock_population": top,
    }
    _emit(json.dumps(payload, indent=2), args)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.frame != "displaced":
        # every sweep point is built in the displaced frame
        raise ValueError(f"config key 'frame' must be 'displaced' for a sweep, got {cfg.frame!r}")
    p = config.to_system_params(cfg)
    grid = sweep.SweepGrid(
        power_db=np.linspace(cfg.power_db_min, cfg.power_db_max, cfg.power_points),
        detuning=TWO_PI * np.linspace(cfg.detuning_mhz_min, cfg.detuning_mhz_max, cfg.detuning_points),
        fixed=p,
        mode=cfg.mode,
        theta=math.radians(cfg.theta_deg),
        auto_n_fock=cfg.n_fock is None,
    )
    table = sweep.run_sweep(grid, workers=cfg.workers)
    if cfg.tomography_scale != 1.0:
        table = sweep.apply_tomography_scale(table, cfg.tomography_scale)
    out = args.output or "sweep.csv"
    write_csv(table, out, no_timestamp=args.no_timestamp)
    bad = sum(1 for r in table.rows if not r.converged)
    note = f" ({bad} points failed)" if bad else ""
    print(f"wrote {len(table.rows)} rows to {out}{note}")
    return 0


def _analyze_column(args, analyze):
    """analyze(t_us, column) for the --column column of the -i trajectory CSV."""
    cols = read_trajectory_csv(args.input)
    for name in ("t_us", args.column):
        if name not in cols:
            raise ValueError(f"{args.input}: no column {name!r}")
    return analyze(cols["t_us"], cols[args.column])


def _cmd_fit(args) -> int:
    fit = _analyze_column(args, analysis.fit_exponential)
    _emit(json.dumps({
        "column": args.column,
        "rate_per_us": fit.rate,
        "y_inf": fit.y_inf,
        "y_0": fit.y_0,
        "rms_residual": fit.rms_residual,
        "iterations": fit.iterations,
    }, indent=2), args)
    return 0


def _cmd_spectrum(args) -> int:
    freq = _analyze_column(args, analysis.dominant_frequency)
    _emit(json.dumps({"column": args.column, "frequency_mhz": freq}, indent=2), args)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dressed-cool", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dressed-cool {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_text, *, config=True, output=True, timestamp=False, reads_input=False):
        sp = sub.add_parser(name, help=help_text)
        if config:
            sp.add_argument("-c", "--config", help="path to a flat JSON config file")
        if output:
            sp.add_argument("-o", "--output", help="output file (default: stdout or a derived name)")
        if timestamp:
            sp.add_argument("--no-timestamp", action="store_true",
                            help="omit the timestamp metadata line for byte-identical reruns")
        if reads_input:
            sp.add_argument("-i", "--input", required=True, help="trajectory CSV to analyze")
            sp.add_argument("--column", default="sx", help="column to analyze (default sx)")
        sp.set_defaults(func=func)
        return sp

    add("rates", _cmd_rates, "print analytic dressed-state rates and the steady Bloch prediction")
    add("evolve", _cmd_evolve, "integrate the master equation and write a trajectory CSV", timestamp=True)
    add("steady", _cmd_steady, "solve the steady state and print tomography values")
    add("sweep", _cmd_sweep, "run a power x detuning sweep and write the table CSV", timestamp=True)
    add("fit", _cmd_fit, "fit an exponential relaxation to a trajectory CSV column", reads_input=True)
    add("spectrum", _cmd_spectrum, "extract the dominant oscillation frequency from a trajectory CSV",
        reads_input=True)
    # the suite's operating points are fixed: verify takes no -c, rather
    # than ignore it
    add("verify", _cmd_verify, "run the acceptance suite and print one pass/fail line per criterion",
        config=False, output=False)
    return parser


def main(argv=None) -> int:
    # the CLI owns its process: its parallelism is the sweep's worker
    # processes, never BLAS threads
    sweep._set_blas_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except analysis.NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    app()
