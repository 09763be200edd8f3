#!/usr/bin/env bash
# Offline-safe CI gate: formatting, lints, build, and the full test suite.
# The workspace has zero external dependencies, so every step below works
# without network access (no `cargo fetch` required).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> kernel bench smoke (regression thresholds + 4-byte NodeRef / 12-byte node gate)"
./target/release/kernel --smoke --check --out /tmp/bench_bdd_kernel_smoke.json

echo "==> paper-table bins run to completion"
# Only the exit status is gated: some bins print recorded VIOLATED
# shape checks by design (see EXPERIMENTS.md).
for bin in table1 table2 table3 ablation_buffering ablation_collapse \
  falsepath granularity schedulability shock_absorber; do
  ./target/release/"$bin" >/dev/null || { echo "FAIL: $bin exited non-zero"; exit 1; }
done

echo "==> generated C is byte-identical across --jobs values on every example spec"
rm -rf /tmp/polis_ci_synth
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.j1" --jobs 1 >/dev/null
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.j4" --jobs 4 >/dev/null
  diff -r "/tmp/polis_ci_synth/$name.j1" "/tmp/polis_ci_synth/$name.j4" \
    || { echo "FAIL: $spec synthesis output differs between --jobs 1 and --jobs 4"; exit 1; }
done

echo "==> polis fmt keeps the generated C of every example spec byte-identical"
rm -rf /tmp/polis_ci_fmt
mkdir -p /tmp/polis_ci_fmt/formatted
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  formatted="/tmp/polis_ci_fmt/formatted/$name.pol"
  ./target/release/polis fmt "$spec" >"$formatted"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_fmt/$name.orig" --jobs 1 >/dev/null
  ./target/release/polis synth "$formatted" -o "/tmp/polis_ci_fmt/$name.fmt" --jobs 1 >/dev/null
  diff -r "/tmp/polis_ci_fmt/$name.orig" "/tmp/polis_ci_fmt/$name.fmt" \
    || { echo "FAIL: polis fmt changes the synthesis output of $spec"; exit 1; }
done

echo "==> symbolic verification of the example networks"
for spec in examples/specs/*.pol; do
  echo "--- polis verify $spec"
  ./target/release/polis verify "$spec"
done

echo "==> property suites: exact verdicts on every example spec"
# Each example ships one deliberately violated `assert never` whose
# decoded counterexample the test suite replays; the CLI gate here pins
# the verdict lines themselves.
check_props() {
  local spec="$1"; shift
  local out
  echo "--- polis verify $spec --props"
  out="$(./target/release/polis verify "$spec" --props)"
  for want in "$@"; do
    grep -qF "$want" <<<"$out" \
      || { echo "FAIL: $spec missing verdict: $want"; echo "$out"; exit 1; }
  done
}
check_props examples/specs/simple.pol \
  "properties: 2 checked, 1 violated" \
  "assert reachable simple.c: holds" \
  "assert never (simple@awaiting && simple.c): VIOLATED"
check_props examples/specs/seat_belt.pol \
  "properties: 3 checked, 1 violated" \
  "assert reachable belt_control@alarm: holds" \
  "assert never (belt_control@off && belt_control@waiting): holds" \
  "assert never (belt_control@alarm && belt_control.belt_on): VIOLATED"
check_props examples/specs/shock_absorber.pol \
  "properties: 3 checked, 1 violated" \
  "assert reachable mode@sport: holds" \
  "assert never (mode@comfort && mode@sport): holds" \
  "assert never (watchdog@starving && act.pwm_tick): VIOLATED"
check_props examples/specs/dashboard.pol \
  "properties: 3 checked, 1 violated" \
  "assert reachable (frc@saturated && rpc@saturated): holds" \
  "assert never (frc@counting && frc@saturated): holds" \
  "assert never (speedo.wticks && odometer.wticks): VIOLATED"

echo "==> verify bench smoke (sanity thresholds + deterministic regression gate)"
./target/release/verify --smoke --check --gate BENCH_verify.json --out /tmp/bench_verify_smoke.json

# The benchmark is its own Cargo workspace on top of the public crate APIs,
# so the workspace steps above never compile it.
echo "==> cargo test --release --manifest-path perfbench/Cargo.toml"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> benchmark smoke: one second of cosim_dashboard, checked and failure-free"
result="$(python3 perfbench/run.py --workload cosim_dashboard --seed 1 --seconds 1 --trace 0 | tail -n 1)"
grep -qF '"correct": true' <<<"$result" && grep -qF '"failed": 0,' <<<"$result" \
  || { echo "FAIL: benchmark smoke result: $result"; exit 1; }

echo "==> benchmark smoke: one second of synth_fleet, checked and failure-free"
result="$(python3 perfbench/run.py --workload synth_fleet --seed 1 --seconds 1 --trace 0 | tail -n 1)"
grep -qF '"correct": true' <<<"$result" && grep -qF '"failed": 0,' <<<"$result" \
  || { echo "FAIL: benchmark smoke result: $result"; exit 1; }

echo "==> benchmark smoke: one second of verify_relay, checked and failure-free"
result="$(python3 perfbench/run.py --workload verify_relay --seed 1 --seconds 1 --trace 0 | tail -n 1)"
grep -qF '"correct": true' <<<"$result" && grep -qF '"failed": 0,' <<<"$result" \
  || { echo "FAIL: benchmark smoke result: $result"; exit 1; }

echo "CI OK"
