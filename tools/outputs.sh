#!/bin/sh
# Write the CLI outputs that must stay byte-identical while the numerical
# method is unchanged into <outdir>, beside the <name>.json.in config of each:
#   steady_map.csv              default 41x41 steady_tomography sweep, 1 worker
#   rates_map.csv               default rates_analytic_map sweep
#   cooling_map.csv             3x3 cooling_rate sweep on the default ranges
#   evolve_undisplaced.csv      lab-frame turn-on trajectory
#   evolve_displaced.csv        displaced-frame trajectory from |g>
#   evolve_turn_on_n4.csv       displaced turn-on at n_bar = 4 over 2 us
#   evolve_strong.csv           criterion 3's strong-coupling run from |g>
#   fit.json                    exponential fit of evolve_undisplaced.csv's sx
#   spectrum.json               dominant frequency of evolve_strong.csv's sx
#   steady_displaced.json       steady state in the displaced frame
#   steady_undisplaced.json     steady state in the lab frame
#   steady_undriven.json        steady state of the undriven cavity (n_bar = 0,
#                               displaced frame), whose eps_d = 0 drops the
#                               coupling terms and so has a map of its own
#   rates.txt                   analytic rates at the defaults
#   rates_blue.txt              analytic rates at delta_c = +9 MHz
#   verify.txt                  acceptance lines and the exit status
#   verify_trajectories.txt     verify's per-trajectory stderr lines without
#                               their timings: name, d^2, generator
#                               applications and top Fock level population
# How each file moved under a change of numerical method is in CHANGES.md.
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
run steady_undriven '{"n_bar": 0}' steady -o "$out/steady_undriven.json"
run rates '{}' rates -o "$out/rates.txt"
run rates_blue '{"delta_c_mhz": 9}' rates -o "$out/rates_blue.txt"
status=0
dc verify > "$out/verify.txt" 2> "$out/verify.err" || status=$?
echo "exit=$status" >> "$out/verify.txt"
# " in 2.61 s (45.7 us each, 0.21 s reducing)," -> ","
grep '^trajectory ' "$out/verify.err" | sed -E 's/ in [^,]* s( \([^)]*\))?,/,/' > "$out/verify_trajectories.txt"
rm "$out/verify.err"
echo "wrote $out"
