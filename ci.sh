#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml checks out, installs the
# toolchain, and runs this script; run it locally for the same result.
set -euo pipefail
cd "$(dirname "$0")"

# A change to the dependencies fails here unless it commits the
# refreshed Cargo.lock. The workspace commands run --locked, which
# refuses a lock that lacks a dependency; --locked accepts a lock that
# still lists a removed one, so the first step resolves the workspace
# and fails if that rewrites the lock (leaving the refreshed one).
echo "== Cargo.lock is current =="
root_lock="$(mktemp)"
cp Cargo.lock "$root_lock"
cargo metadata --format-version 1 > /dev/null
cmp -s Cargo.lock "$root_lock" || {
  echo "Cargo.lock is stale: commit the refreshed lock" >&2; exit 1; }
rm -f "$root_lock"

echo "== cargo build --release =="
cargo build --locked --release --workspace

echo "== cargo test =="
cargo test --locked -q --workspace

echo "== cargo clippy =="
cargo clippy --locked --all-targets --workspace -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc (workspace) =="
RUSTDOCFLAGS="-D warnings" cargo doc --locked -q --workspace --no-deps

echo "== examples =="
# Each example asserts the admission guarantees it prints; a failed
# assertion exits nonzero and fails the gate.
for example in quickstart sensor_node design_space priority_assignment spilling; do
  cargo run --locked --release -q --example "$example" > /dev/null
done

echo "== rtmdm trace smoke =="
trace_out="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --out "$trace_out" --format chrome --gantt
# A faulted run's Gantt chart marks retried transfers on the DMA row
# and ends with the CPU/DMA summary (whose DMA time counts faulted and
# cancelled attempts, as the simulator's channel does).
gantt_out="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --fault-rate 200000 --fault-seed 42 --fault-jitter 25 \
  --out "$trace_out" --format chrome --gantt > "$gantt_out"
grep -q '^ *DMA |.*!' "$gantt_out" || {
  echo "trace smoke: no fault marker on the Gantt DMA row" >&2; exit 1; }
grep -Eq '^cpu [0-9]+cy busy / [0-9]+cy idle, dma [0-9]+cy busy' "$gantt_out" || {
  echo "trace smoke: Gantt summary line missing" >&2; exit 1; }
rm -f "$trace_out" "$gantt_out"

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

echo "== rtmdm Chrome export pin =="
# A 10 s faulted run (about 300 KB, 42 fault events) whose task names
# need escaping: the export writes its JSON directly, not through its
# serde tree, and must keep these bytes.
chrome_digest="$(./target/release/rtmdm trace --platform stm32f746-qspi \
  --task 'k"w\s=ds-cnn@100' --task 'ctl λ=micro-mlp@20' \
  --task vww=mobilenet-v1-025@500 --seconds 10 --fault-rate 30000 \
  --fault-seed 7 --format chrome | sha256sum)"
[[ "$chrome_digest" == 6788e700fb6b62848723cb15576ad9d274b6971ce896a3dec333036e3460bed7\ * ]] || {
  echo "chrome pin: export digest moved: $chrome_digest" >&2; exit 1; }

echo "== rtmdm explain smoke =="
# The forensics path: a pinned miss-producing scenario must attribute
# cleanly (exit 0, conservation exact), print the blame table, and its
# --json report must re-validate through the bundled serde_json (the
# CLI re-parses it before printing). Every framework run records the
# attribution anchors, so a JSONL trace must carry them.
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
anchors_out="$(mktemp)"
./target/release/rtmdm trace --platform stm32f746-qspi --task kws=ds-cnn@100 \
  --seconds 1 --out "$anchors_out" --format jsonl
grep -q 'FetchWaitBegan' "$anchors_out" || {
  echo "explain smoke: JSONL trace carries no attribution anchors" >&2; exit 1; }
rm -f "$explain_out" "$explain_json" "$anchors_out"

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
# A two-task jitter cell whose first run misses a deadline: the
# violating run stops after its first violating instant, so the report
# counts only the states explored up to the miss, and the witness must
# equal the golden file byte for byte. Fork-versus-replay equality is
# checked in-process by the test suites (DESIGN.md §2.7).
jitter_report="$(mktemp)"; jitter_witness="$(mktemp)"
set +e
./target/release/rtmdm check --platform stm32f746-qspi --task kws=ds-cnn@30 \
  --task ic=resnet8@100 --explore --jitter 20 \
  --witness "$jitter_witness" > "$jitter_report"
jitter_code=$?
set -e
if [[ $jitter_code -ne 2 ]]; then
  echo "explore smoke: jitter cell exited $jitter_code, want 2" >&2; exit 1
fi
grep -q 'explored 6 states over 1 runs (12 transitions)' "$jitter_report" || {
  echo "explore smoke: the violating run did not stop at its miss" >&2; exit 1; }
cmp -s "$jitter_witness" tests/golden_witness.json || {
  echo "explore smoke: witness differs from tests/golden_witness.json" >&2; exit 1; }
# The explorer takes no thread count and no strategy, every run records
# the attribution anchors (so `--attribution` is no flag), and each
# subcommand accepts only the flags it reads: every invocation below is
# a usage error (exit 1, the usage line on stderr, nothing on stdout),
# and the refused `--out` writes no file.
refused_out="$(mktemp)"; refused_err="$(mktemp)"; refused_dir="$(mktemp -d)"
for args in "check --task ic=resnet8@10 --explore --threads 8" \
  "check --task ic=resnet8@10 --explore --strategy fork" \
  "trace --task kws=ds-cnn@100 --attribution off" \
  "check --task ic=resnet8@10 --explore --seconds 5" \
  "admit --task kws=ds-cnn@100 --out $refused_dir/x" \
  "platforms --json"; do
  set +e
  # $args stays unquoted so that it splits into the subcommand, flags
  # and values.
  ./target/release/rtmdm $args > "$refused_out" 2> "$refused_err"
  refused_code=$?
  set -e
  if [[ $refused_code -ne 1 ]] || [[ -s "$refused_out" ]] \
    || ! grep -q '^usage: rtmdm ' "$refused_err" || [[ -e "$refused_dir/x" ]]; then
    echo "explore smoke: \`rtmdm $args\` was not refused as a usage error" >&2; exit 1
  fi
done
rm -f "$jitter_report" "$jitter_witness" "$refused_out" "$refused_err"
rmdir "$refused_dir"
# A search with many merges: most paths of this fault search merge into
# one explored earlier and stop there. Its counts must be the ones
# every path run to the horizon gives, and the budget cut must report
# the 384 branches left on the stack.
merge_out="$(mktemp)"
./target/release/rtmdm check --platform stm32f746-qspi --task kws=ds-cnn@60 \
  --task ic=resnet8@300 --explore --fault-rate 20000 --fault-retries 2 > "$merge_out"
grep -q 'explored 20000 states over 19617 runs (1666949 transitions)' "$merge_out" || {
  echo "explore smoke: merge-heavy search moved off its counts" >&2; exit 1; }
grep -q '(20000 states, 19617 runs, 384 unexplored branches)' "$merge_out" || {
  echo "explore smoke: merge-heavy search left a different stack" >&2; exit 1; }
rm -f "$merge_out"
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
# Sizes and periods near u64::MAX. A release build wraps instead of
# panicking, so only a release run shows a wrong verdict here: a double
# buffer (b) or an activation region (j) past u64::MAX bytes fits no
# SRAM, and two jobs per ~2^64 cycles (k) is a light EDF load. A line
# with a 1 MiB id must be answered, the id echoed, without the string
# parser going quadratic. A higher-priority deadline near 2^64 cycles
# (c8) is a light fixed-priority load with an exact bound, and an
# overloaded task over a 2^64-cycle period (c9) makes the
# memory-oblivious iterate overflow, which is a divergence. Audsley's
# search admits what deadline-monotonic admits, gated (o1) and
# work-conserving (o2).
cat > "$serve_in" <<'JSONL'
{"id":"b","tasks":[{"name":"t","model":"ds-cnn","period_us":100000,"buffer_bytes":9223372036854775808}]}
{"id":"j","tasks":[{"name":"t","model":"ds-cnn","period_us":100000,"activation_budget_bytes":18446744073709551615}]}
{"id":"k","options":{"policy":"edf"},"tasks":[{"name":"t","model":"ds-cnn","period_us":18446744073709551615},{"name":"u","model":"micro-mlp","period_us":18446744073709551614}]}
JSONL
long_id="$(head -c 1048576 /dev/zero | tr '\0' x)"
printf '{"id":"%s","tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}\n' \
  "$long_id" >> "$serve_in"
cat >> "$serve_in" <<'JSONL'
{"id":"c8","tasks":[{"name":"t","model":"ds-cnn","period_us":18446744073709551615},{"name":"u","model":"resnet8","period_us":18446744073709551614}]}
{"id":"c9","options":{"work_conserving":true,"dma_aware_analysis":false},"tasks":[{"name":"t","model":"ds-cnn","period_us":18446744073709551615},{"name":"u","model":"autoencoder","period_us":1000}]}
{"id":"o1","options":{"assignment":"audsley"},"tasks":[{"name":"t0","model":"micro-mlp","period_us":10000,"deadline_us":6000},{"name":"t1","model":"lenet5","period_us":30000,"deadline_us":18000},{"name":"t2","model":"resnet8","period_us":400000,"deadline_us":360000}]}
{"id":"o2","options":{"assignment":"audsley","work_conserving":true},"tasks":[{"name":"t0","model":"ds-cnn","period_us":100000,"deadline_us":70000},{"name":"t1","model":"lenet5","period_us":200000,"deadline_us":160000},{"name":"t2","model":"micro-mlp","period_us":400000,"deadline_us":240000},{"name":"t3","model":"ds-cnn","period_us":100000,"deadline_us":100000}]}
JSONL
timeout 60 ./target/release/rtmdm serve --once --input "$serve_in" > "$serve_out" || {
  echo "serve smoke: edge batch failed or timed out" >&2; exit 1; }
[[ "$(wc -l < "$serve_out")" -eq 8 ]] || {
  echo "serve smoke: edge batch did not answer 8 lines" >&2; exit 1; }
for id in b j; do
  grep -q "\"id\":\"$id\".*\"verdict\":\"reject\".*memory planning: cannot allocate" \
    "$serve_out" || {
    echo "serve smoke: line $id did not reject on memory" >&2; exit 1; }
done
grep -q '"id":"k".*"verdict":"admit"' "$serve_out" || {
  echo "serve smoke: light EDF line k did not admit" >&2; exit 1; }
for id in c8 o1 o2; do
  grep -q "\"id\":\"$id\".*\"verdict\":\"admit\"" "$serve_out" || {
    echo "serve smoke: line $id did not admit" >&2; exit 1; }
done
grep -q '"id":"c9".*"verdict":"reject"' "$serve_out" || {
  echo "serve smoke: line c9 did not reject" >&2; exit 1; }
[[ "$(sed -n 4p "$serve_out")" == '{"schema":"rtmdm-serve/1","id":"'"$long_id"'","ok":true,"verdict":"admit"'* ]] || {
  echo "serve smoke: long-id line was not answered with its id" >&2; exit 1; }
# A 1 µs deadline derives a compute cap of a few cycles. Tiling counts
# its slices before allocating and refuses past its limit, so one such
# task, and four, are each rejected within a 256 MiB address space.
tiny='"period_us":1,"deadline_us":1'
tiny_one='{"id":"s1","platform":"cortex-m4-lowend","tasks":[{"name":"t1","model":"mobilenet-v1-025",'"$tiny"'}]}'
tiny_four='{"id":"s4","platform":"cortex-m4-lowend","tasks":[{"name":"t1","model":"mobilenet-v1-025",'"$tiny"'},{"name":"t2","model":"resnet8",'"$tiny"'},{"name":"t3","model":"ds-cnn",'"$tiny"'},{"name":"t4","model":"autoencoder",'"$tiny"'}]}'
for line in "$tiny_one" "$tiny_four"; do
  printf '%s\n' "$line" > "$serve_in"
  (ulimit -v 262144; timeout 10 ./target/release/rtmdm serve --once --input "$serve_in") \
    > "$serve_out" || {
    echo "serve smoke: tiny-deadline line failed or timed out" >&2; exit 1; }
  [[ "$(grep -c '"verdict":"reject"' "$serve_out")" -eq 1 ]] || {
    echo "serve smoke: tiny-deadline line was not rejected" >&2; exit 1; }
done
rm -f "$serve_in" "$serve_out" "$serve_out2"

echo "== rtbench self-tests and workload smokes =="
# The repository benchmark (rtbench/, its own Cargo package) checks
# every answer it times. Its self-tests plus short runs of all four
# workloads make a change that breaks those output checks fail here
# first.
# Building rtbench in place refreshes its lock file; the copy taken
# here is put back afterwards, so a green run changes nothing under
# rtbench/.
lock_copy="$(mktemp)"
cp rtbench/Cargo.lock "$lock_copy"
cargo test -q --release --offline --manifest-path rtbench/Cargo.toml
# Each workload runs untraced and traced: only a traced run checks the
# service's verdicts against rtbench's own lowering and analysis.
bench_out="$(mktemp)"
for workload in serve_cold serve_fleet explore simulate; do
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path rtbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 2 --trace "$trace" > "$bench_out"
    last="$(tail -n 1 "$bench_out")"
    [[ "$last" == *'"correct":true'* && "$last" == *'"failed":0'* ]] || {
      echo "rtbench smoke: $workload --trace $trace output checks failed" >&2; exit 1; }
    # The traced explore counters pin the exploration itself: any change
    # to the merge relation moves them, not only the pinned cells.
    if [[ "$workload" == explore && "$trace" == 1 ]]; then
      for pin in '"explore.states":{"value":4493,' '"explore.runs":{"value":2018,' \
        '"explore.transitions":{"value":247330,' '"conclusive_cells":{"value":52,'; do
        [[ "$last" == *"$pin"* ]] || {
          echo "rtbench smoke: explore --seed 1 counter moved, expected $pin" >&2; exit 1; }
      done
    fi
  done
done
rm -f "$bench_out"
cp "$lock_copy" rtbench/Cargo.lock
rm -f "$lock_copy"

echo "CI green."
