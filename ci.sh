#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml checks out, installs the
# toolchain, and runs this script; run it locally for the same result.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo clippy =="
cargo clippy --all-targets --workspace -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc (workspace) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== examples =="
# Each example asserts the admission guarantees it prints; a failed
# assertion exits nonzero and fails the gate.
for example in quickstart sensor_node design_space priority_assignment spilling; do
  cargo run --release -q --example "$example" > /dev/null
done

echo "== rtmdm trace smoke =="
trace_out="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --out "$trace_out" --format chrome --gantt
# The export must re-parse through the bundled serde_json (the test
# binary below does exactly that against the golden scenario too).
cargo test -q --test observability chrome_export_round_trips_through_serde_json
rm -f "$trace_out"

echo "== rtmdm fault-injection smoke =="
# A fixed-seed nonzero-rate run must succeed and export re-parseable
# JSON; a zero-rate run must be byte-identical to one with no fault
# flags at all (the inactive plan is provably free).
fault_out="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --fault-rate 200000 --fault-seed 42 --fault-jitter 25 \
  --out "$fault_out" --format chrome
fault_out2="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --fault-rate 200000 --fault-seed 42 --fault-jitter 25 \
  --out "$fault_out2" --format chrome
cmp "$fault_out" "$fault_out2" || {
  echo "fault smoke: seeded runs are not reproducible" >&2; exit 1; }
grep -q '"cat":"fault"' "$fault_out" || {
  echo "fault smoke: no fault events in export" >&2; exit 1; }
plain_out="$(mktemp)"
zero_out="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --out "$plain_out" --format chrome
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --fault-rate 0 --fault-seed 123 --out "$zero_out" --format chrome
cmp "$plain_out" "$zero_out" || {
  echo "fault smoke: zero-rate run differs from no-plan run" >&2; exit 1; }
rm -f "$fault_out" "$fault_out2" "$plain_out" "$zero_out"

echo "== rtmdm explain smoke =="
# The forensics path: a pinned miss-producing scenario must attribute
# cleanly (exit 0, conservation exact), print the blame table, and its
# --json report must re-validate through the bundled serde_json (the
# CLI re-parses it before printing). Attribution is opt-in everywhere
# else: a trace with --attribution off (the default) must be
# byte-identical to one that never heard of the flag.
explain_out="$(mktemp)"
./target/release/rtmdm explain --platform stm32f746-qspi --task kws=ds-cnn@30 \
  --task ic=resnet8@150 --fault-rate 100000 --seconds 1 > "$explain_out"
grep -q 'dominant' "$explain_out" || {
  echo "explain smoke: no blame table in output" >&2; exit 1; }
grep -q 'conservation: exact' "$explain_out" || {
  echo "explain smoke: conservation line missing" >&2; exit 1; }
grep -q '^miss ' "$explain_out" || {
  echo "explain smoke: scenario produced no miss forensics" >&2; exit 1; }
explain_json="$(mktemp)"
./target/release/rtmdm explain --platform stm32f746-qspi --task kws=ds-cnn@30 \
  --task ic=resnet8@150 --fault-rate 100000 --seconds 1 --json > "$explain_json"
grep -q '"blame"' "$explain_json" || {
  echo "explain smoke: --json report missing blame section" >&2; exit 1; }
attr_off="$(mktemp)"
attr_default="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --attribution off --out "$attr_off" --format chrome
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --out "$attr_default" --format chrome
cmp "$attr_off" "$attr_default" || {
  echo "explain smoke: attribution default is not off" >&2; exit 1; }
rm -f "$explain_out" "$explain_json" "$attr_off" "$attr_default"

echo "== rtmdm check sweep =="
# Every zoo model on every platform preset must verify to parseable
# JSON and a 0/2 exit; the JSON is re-parsed by the CLI itself (it
# round-trips the report through the bundled serde_json before
# printing). A deliberately broken spec must exit 2.
for platform in cortex-m4-lowend stm32f746-qspi stm32h743-ospi ideal-sram; do
  for model in micro-mlp ds-cnn lenet5 resnet8 mobilenet-v1-025 autoencoder; do
    set +e
    ./target/release/rtmdm check --platform "$platform" \
      --task "t=${model}@1000" --json --deny-warnings > /dev/null
    code=$?
    set -e
    if [[ $code -ne 0 && $code -ne 2 ]]; then
      echo "check sweep: $platform/$model exited $code" >&2
      exit 1
    fi
  done
done
if ./target/release/rtmdm check --task bad=ds-cnn@100/200 > /dev/null; then
  echo "check smoke: broken spec unexpectedly verified clean" >&2
  exit 1
fi

echo "== rtmdm check --explore smoke =="
# The explorer gate: an analysis-admitted pair must also prove safe
# under exhaustive exploration (exit 0, space covered); a directed
# overload must exit 2 with a reachable-miss finding and a witness
# that re-validates through the bundled serde_json (the CLI
# round-trips it before writing). --explain must describe a known
# rule and reject an unknown one as a usage error.
explore_out="$(mktemp)"
./target/release/rtmdm check --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --task ic=resnet8@400 --explore > "$explore_out"
grep -q 'complete' "$explore_out" || {
  echo "explore smoke: admitted cell did not cover its space" >&2; exit 1; }
witness_out="$(mktemp)"
set +e
./target/release/rtmdm check --platform stm32f746-qspi --task ic=resnet8@10 \
  --explore --witness "$witness_out" > "$explore_out"
code=$?
set -e
if [[ $code -ne 2 ]]; then
  echo "explore smoke: overload exited $code, want 2" >&2; exit 1
fi
grep -q 'RTM050' "$explore_out" || {
  echo "explore smoke: overload report missing RTM050" >&2; exit 1; }
grep -q '"rtmdm-witness/1"' "$witness_out" || {
  echo "explore smoke: witness JSON missing schema marker" >&2; exit 1; }
# Strategy equivalence on the same pinned RTM050 scenario: fork-based
# incremental exploration and replay-from-zero must produce the exact
# same report bytes and witness JSON (the CLI-level corollary of the
# differential property suite; DESIGN.md §2.7).
fork_report="$(mktemp)"; fork_witness="$(mktemp)"
replay_report="$(mktemp)"; replay_witness="$(mktemp)"
set +e
./target/release/rtmdm check --platform stm32f746-qspi --task ic=resnet8@10 \
  --explore --strategy fork --witness "$fork_witness" > "$fork_report"
fork_code=$?
./target/release/rtmdm check --platform stm32f746-qspi --task ic=resnet8@10 \
  --explore --strategy replay --witness "$replay_witness" > "$replay_report"
replay_code=$?
set -e
if [[ $fork_code -ne 2 || $replay_code -ne 2 ]]; then
  echo "explore smoke: strategies exited $fork_code/$replay_code, want 2/2" >&2
  exit 1
fi
cmp -s "$fork_report" "$replay_report" || {
  echo "explore smoke: fork and replay reports differ" >&2; exit 1; }
cmp -s "$fork_witness" "$replay_witness" || {
  echo "explore smoke: fork and replay witness JSON differ" >&2; exit 1; }
# Thread-count invariance: the speculative parallel frontier may not
# change a single output byte.
threads1_out="$(mktemp)"
threads8_out="$(mktemp)"
set +e
RTMDM_THREADS=1 ./target/release/rtmdm check --platform stm32f746-qspi \
  --task ic=resnet8@10 --explore > "$threads1_out"
RTMDM_THREADS=8 ./target/release/rtmdm check --platform stm32f746-qspi \
  --task ic=resnet8@10 --explore > "$threads8_out"
set -e
cmp -s "$threads1_out" "$threads8_out" || {
  echo "explore smoke: output differs between 1 and 8 threads" >&2; exit 1; }
rm -f "$fork_report" "$fork_witness" "$replay_report" "$replay_witness" \
  "$threads1_out" "$threads8_out"
# A search with many merges: most paths of this fault search merge into
# one explored earlier and stop there. Both strategies at 1 and 8
# threads must print the same report, and its counts must be the ones
# every path run to the horizon gives.
merge_dir="$(mktemp -d)"
for strategy in fork replay; do
  for threads in 1 8; do
    ./target/release/rtmdm check --platform stm32f746-qspi --task kws=ds-cnn@60 \
      --task ic=resnet8@300 --explore --fault-rate 20000 --fault-retries 2 \
      --strategy "$strategy" --threads "$threads" > "$merge_dir/$strategy-$threads"
    grep -q 'explored 20000 states over 19617 runs (1666949 transitions)' \
      "$merge_dir/$strategy-$threads" || {
      echo "explore smoke: merge-heavy search moved off its counts" \
        "($strategy, $threads threads)" >&2; exit 1; }
    cmp -s "$merge_dir/fork-1" "$merge_dir/$strategy-$threads" || {
      echo "explore smoke: merge-heavy search differs" \
        "($strategy, $threads threads)" >&2; exit 1; }
  done
done
rm -rf "$merge_dir"
./target/release/rtmdm check --explain RTM050 > "$explore_out"
grep -q 'RTM050' "$explore_out" || {
  echo "explore smoke: --explain RTM050 failed" >&2; exit 1; }
if ./target/release/rtmdm check --explain RTM999 2> /dev/null; then
  echo "explore smoke: unknown rule unexpectedly explained" >&2; exit 1
fi
rm -f "$explore_out" "$witness_out"

echo "== rtmdm serve smoke =="
# Three-line JSONL batch through the admission service: a well-formed
# admit, a malformed line (must yield an error record, not kill the
# stream or the exit code), and an infeasible spec (must reject with
# findings). A repeated run must be byte-identical — the warm-equals-
# cold invariant's CLI-level corollary (DESIGN.md §2.6).
serve_in="$(mktemp)"
serve_out="$(mktemp)"
serve_out2="$(mktemp)"
cat > "$serve_in" <<'JSONL'
{"id":"q-admit","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}
{this line is not json}
{"id":"q-reject","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"ae","model":"autoencoder","period_us":4000}]}
JSONL
./target/release/rtmdm serve --once --input "$serve_in" > "$serve_out"
[[ "$(wc -l < "$serve_out")" -eq 3 ]] || {
  echo "serve smoke: expected 3 response lines" >&2; exit 1; }
grep -q '"id":"q-admit".*"verdict":"admit"' "$serve_out" || {
  echo "serve smoke: well-formed query did not admit" >&2; exit 1; }
grep -q '"ok":false' "$serve_out" || {
  echo "serve smoke: malformed line produced no error record" >&2; exit 1; }
grep -q '"id":"q-reject".*"verdict":"reject"' "$serve_out" || {
  echo "serve smoke: infeasible query did not reject" >&2; exit 1; }
./target/release/rtmdm serve --once --input "$serve_in" > "$serve_out2"
cmp "$serve_out" "$serve_out2" || {
  echo "serve smoke: repeated runs are not byte-identical" >&2; exit 1; }
# A line nested past the JSON parser's depth cap must get an error
# record, not abort the server: streaming, and in a sharded batch whose
# worker threads run on smaller stacks.
valid='{"id":"q-valid","tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}'
{ echo "$valid"; printf '%*s\n' 50000 '' | tr ' ' '['; echo "$valid"; } > "$serve_in"
./target/release/rtmdm serve < "$serve_in" > "$serve_out"
RTMDM_THREADS=2 ./target/release/rtmdm serve --once < "$serve_in" > "$serve_out2"
for out in "$serve_out" "$serve_out2"; do
  [[ "$(wc -l < "$out")" -eq 3 ]] || {
    echo "serve smoke: deep batch did not answer 3 lines" >&2; exit 1; }
  [[ "$(sed -n 2p "$out")" == *'"ok":false'* ]] || {
    echo "serve smoke: deep line produced no error record" >&2; exit 1; }
done
rm -f "$serve_in" "$serve_out" "$serve_out2"

echo "== rtbench self-tests and workload smokes =="
# The repository benchmark (rtbench/, its own Cargo package) checks
# every answer it times. Its self-tests plus short runs of all four
# workloads make a change that breaks those output checks fail here
# first.
cargo test -q --release --offline --manifest-path rtbench/Cargo.toml
bench_out="$(mktemp)"
cargo run --release --offline --quiet --manifest-path rtbench/Cargo.toml -- \
  --workload serve_cold --seed 1 --seconds 2 --trace 0 > "$bench_out"
tail -n 1 "$bench_out" | grep -q '"failed":0' || {
  echo "rtbench smoke: serve_cold output checks failed" >&2; exit 1; }
cargo run --release --offline --quiet --manifest-path rtbench/Cargo.toml -- \
  --workload serve_fleet --seed 1 --seconds 2 --trace 0 > "$bench_out"
tail -n 1 "$bench_out" | grep -q '"failed":0' || {
  echo "rtbench smoke: serve_fleet output checks failed" >&2; exit 1; }
cargo run --release --offline --quiet --manifest-path rtbench/Cargo.toml -- \
  --workload explore --seed 1 --seconds 2 --trace 0 > "$bench_out"
tail -n 1 "$bench_out" | grep -q '"failed":0' || {
  echo "rtbench smoke: explore output checks failed" >&2; exit 1; }
cargo run --release --offline --quiet --manifest-path rtbench/Cargo.toml -- \
  --workload simulate --seed 1 --seconds 2 --trace 0 > "$bench_out"
tail -n 1 "$bench_out" | grep -q '"failed":0' || {
  echo "rtbench smoke: simulate output checks failed" >&2; exit 1; }
rm -f "$bench_out"

echo "CI green."
