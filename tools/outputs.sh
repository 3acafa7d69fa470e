#!/bin/sh
# Write the CLI outputs that must stay byte-identical while the numerical
# method is unchanged, one file each, into <outdir>:
#   steady_map.csv      default 41x41 steady_tomography sweep, 1 worker
#   rates_map.csv       default rates_analytic_map sweep
#   cooling_map.csv     3x3 cooling_rate sweep on the default ranges; its
#                       gamma_fit column is the spectral rate since the
#                       cooling-rate method change (CHANGES.md), which also
#                       added the gamma_fit_method metadata line.  Against a
#                       checkout from before it, only those differ at points
#                       that converged on both sides; the other columns stay
#                       identical.
#   evolve_*.csv        undisplaced/turn_on and displaced/ground trajectories,
#                       and evolve_turn_on_n4.csv, displaced turn-on at
#                       n_bar = 4 over 2 us, whose cutoff the initial state
#                       sets (n_fock 15 since the state-sized cutoff rule in
#                       CHANGES.md; 8 before it, with 0.0627 in the top level),
#                       and evolve_strong.csv, criterion 3's strong-coupling
#                       run from |g> at kappa/2pi = 0.2 MHz, n_bar = 3.31.
#                       Since evolve takes its generator from the cached map
#                       (one generator builder, CHANGES.md), which sums M's
#                       entries in another order, these files differ from a
#                       checkout before it at roundoff only: at most 2.3e-10
#                       in a column, against the integrator's rtol of 1e-8
#   fit.json            exponential fit of the undisplaced trajectory's sx
#   spectrum.json       dominant frequency of evolve_strong.csv's sx
#   steady_*.json       steady state in both frames
#   rates*.txt          rates at the defaults and at delta_c = +9 MHz
#   verify.txt          acceptance lines and the exit status; against a
#                       checkout before the one generator builder only
#                       criterion 7's max |tr - 1| differs (1.47e-14 there,
#                       1.55e-14 since)
# Run it on two checkouts and compare with `diff -r` or `cmp`.
# Usage: tools/outputs.sh <outdir>    (takes about half a minute)
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <outdir>" >&2
    exit 1
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

dc() { python3 -m dressed_cool.cli "$@"; }
run() {  # run <name> <config JSON> <subcommand> [args...]
    name=$1 cfg=$2
    shift 2
    printf '%s\n' "$cfg" > "$out/$name.json.in"
    dc "$@" -c "$out/$name.json.in"
}

run steady_map '{"workers": 1}' sweep -o "$out/steady_map.csv" --no-timestamp
run rates_map '{"mode": "rates_analytic_map", "workers": 1}' \
    sweep -o "$out/rates_map.csv" --no-timestamp
run cooling_map '{"mode": "cooling_rate", "workers": 1, "power_points": 3, "detuning_points": 3}' \
    sweep -o "$out/cooling_map.csv" --no-timestamp
run evolve_undisplaced '{"frame": "undisplaced", "initial_state": "turn_on"}' \
    evolve -o "$out/evolve_undisplaced.csv" --no-timestamp
run evolve_displaced '{"frame": "displaced", "initial_state": "ground"}' \
    evolve -o "$out/evolve_displaced.csv" --no-timestamp
run evolve_turn_on_n4 '{"n_bar": 4, "t_max_us": 2}' \
    evolve -o "$out/evolve_turn_on_n4.csv" --no-timestamp
run evolve_strong \
    '{"kappa_mhz": 0.2, "n_bar": 3.31, "initial_state": "ground", "t_max_us": 20, "n_times": 2001}' \
    evolve -o "$out/evolve_strong.csv" --no-timestamp
dc fit -i "$out/evolve_undisplaced.csv" --column sx -o "$out/fit.json"
dc spectrum -i "$out/evolve_strong.csv" --column sx -o "$out/spectrum.json"
run steady_displaced '{"frame": "displaced"}' steady -o "$out/steady_displaced.json"
run steady_undisplaced '{"frame": "undisplaced"}' steady -o "$out/steady_undisplaced.json"
run rates '{}' rates -o "$out/rates.txt"
run rates_blue '{"delta_c_mhz": 9}' rates -o "$out/rates_blue.txt"
status=0
dc verify > "$out/verify.txt" || status=$?
echo "exit=$status" >> "$out/verify.txt"
echo "wrote $out"
