#!/usr/bin/env bash
# Hermetic CI for the Sequence-RTG reproduction.
#
# The whole pipeline runs with --offline: the workspace has zero crates.io
# dependencies (see DESIGN.md, "Hermetic builds"), so a network-less runner
# must be able to build, test, and audit the tree end to end.
#
# Usage: ci.sh [--stage <pattern>]
#   --stage <pattern>  run only stages whose name contains <pattern>
#                      (glob patterns allowed); everything else is SKIPped.
#                      The accuracy gate and the seqd stages run the release
#                      binaries — run the build stage (or `cargo build
#                      --release --offline`) first on a cold tree.
set -euo pipefail
cd "$(dirname "$0")"

STAGE_FILTER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --stage)   STAGE_FILTER=$2; shift 2 ;;
    --stage=*) STAGE_FILTER=${1#--stage=}; shift ;;
    *) echo "usage: ci.sh [--stage <pattern>]" >&2; exit 2 ;;
  esac
done

# --- Per-stage wall-clock timing and the run summary -----------------------
# Every `==>` stage is timed; the run writes results/ci_timings.json and a
# summary table, and fails when any stage takes more than 3x its recorded
# baseline (plus a 15 s grace for sub-second stages on a noisy runner).
# `stage_begin` doubles as the --stage selector: a filtered-out stage is
# recorded as SKIP and its body never runs.
ci_stage_names=()
ci_stage_ms=()
ci_all_names=()
ci_all_status=()
_stage_open=""
stage_begin() {
  _stage_name=$1
  # shellcheck disable=SC2053  # intentional glob match of the filter
  if [[ -n "${STAGE_FILTER}" && "${_stage_name}" != *${STAGE_FILTER}* ]]; then
    ci_all_names+=("${_stage_name}")
    ci_all_status+=("SKIP")
    return 1
  fi
  _stage_t0=$(date +%s%N)
  _stage_open="${_stage_name}"
  echo "==> ${_stage_name}"
}
stage_end() {
  local ms=$(( ( $(date +%s%N) - _stage_t0 ) / 1000000 ))
  ci_stage_names+=("${_stage_name}")
  ci_stage_ms+=("${ms}")
  ci_all_names+=("${_stage_name}")
  ci_all_status+=("PASS")
  _stage_open=""
}

# --- Shared scratch space and seqd helpers ---------------------------------
smoke_json=$(mktemp)
seqd_log=$(mktemp)
seqd_store=$(mktemp -d)
ci_exit() {
  rm -rf "${smoke_json}" "${smoke_json}".* "${seqd_log}" "${seqd_log}".* "${seqd_store}"
  [[ -n "${seqd_pid:-}" ]] && kill -9 "${seqd_pid}" 2>/dev/null || true
  # The final pass/fail table. A stage that began but never ended is the one
  # that failed the run.
  if [[ -n "${_stage_open}" ]]; then
    ci_all_names+=("${_stage_open}")
    ci_all_status+=("FAIL")
  fi
  if [[ ${#ci_all_names[@]} -gt 0 ]]; then
    echo "==> CI summary"
    local i
    for i in "${!ci_all_names[@]}"; do
      printf '    %-68s %s\n' "${ci_all_names[$i]}" "${ci_all_status[$i]}"
    done
  fi
}
trap ci_exit EXIT

# Poll a seqd stderr log until the daemon announces its port.
wait_seqd_port() {
  local log=$1 port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${log}")
    [[ -n "${port}" ]] && { echo "${port}"; return 0; }
    sleep 0.1
  done
  echo "seqd did not come up" >&2; cat "${log}" >&2; return 1
}

# One HTTP request against a local seqd, asserting a 200 response.
seqd_http() {
  local port=$1 method=$2 path=$3
  exec 3<>"/dev/tcp/127.0.0.1/${port}"
  printf '%s %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "${method}" "${path}" >&3
  head -n1 <&3 | grep -q "200 OK"
  local ok=$?
  exec 3>&- 3<&-
  return "${ok}"
}

# GET a path from a local seqd and print the response body (headers stripped).
seqd_http_body() {
  local port=$1 path=$2
  exec 3<>"/dev/tcp/127.0.0.1/${port}"
  printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "${path}" >&3
  sed '1,/^\r$/d' <&3
  exec 3>&- 3<&-
}

# --- Gate helpers ----------------------------------------------------------
# Both gates below check output produced in this run; thresholds stay at each
# call site so a gate's bar is visible where the gate runs.

# gate_drop_table BASE_TABLE CUR_TABLE MAX_DROP FAIL_MSG
# Join two sorted "name score" tables, print each score trajectory, fail
# when any score drops more than MAX_DROP points below its baseline.
gate_drop_table() {
  local base=$1 cur=$2 max_drop=$3 fail_msg=$4
  join "${base}" "${cur}" | awk -v lim="${max_drop}" -v msg="${fail_msg}" '
    {
      delta = $3 - $2
      printf "    %-14s %.4f -> %.4f (%+.4f)\n", $1, $2, $3, delta
      if (-delta > lim + 1e-9) { bad = 1 }
    }
    END {
      if (bad) { printf "    %s\n", msg > "/dev/stderr"; exit 1 }
    }'
}

# check_seqbench_output STDOUT_FILE
# seqbench prints "workload metric value unit" lines and one JSON result line
# per workload. Every result must be correct with ok_share 1, and wire_small
# (one service, eight fixed templates) must be mined exactly. Throughput and
# peak RSS are printed for the log and not gated (benchmark/README.md, "Host
# noise"; the acceptance pipeline gates peak_rss_mb against the parent).
check_seqbench_output() {
  awk '
    function fail(why) { printf "    %s\n", why > "/dev/stderr"; bad = 1 }
    /^\{/ { results++; if ($0 !~ /"correct": true/) fail("not correct: " substr($0, 1, 60)); next }
    $2 == "ok_share" || ($1 == "wire_small" && $2 ~ /^(grouping_accuracy|patterns_per_template)$/) {
      checked++
      if ($3 != 1) fail($1 " " $2 " " $3 " (want 1)")
    }
    $2 == "peak_rss_mb" { rss[$1] = $3 }
    $2 == "window.e2e_lines_per_s" {
      printf "    %-14s %9.0f lines/s end to end, peak RSS %6.1f MiB\n", $1, $3, rss[$1]
    }
    END {
      if (results != 4 || checked != 6) fail("expected four workloads in the output")
      exit bad
    }' "$1"
}

# --- Stages ----------------------------------------------------------------

if stage_begin "cargo fmt --check"; then
cargo fmt --all -- --check
stage_end
fi

if stage_begin "cargo clippy -p obs -p seqd -p minisql -p patterndb (-D warnings)"; then
# The metrics writer, the daemon it serves and the store under both are
# held to clippy's default lints; the rest of the workspace is not gated yet.
cargo clippy --offline -p obs -p seqd -p minisql -p patterndb --no-deps --all-targets -- -D warnings
stage_end
fi

# The root manifest's `default-members` covers every crate, so the plain
# commands below (tier-1's, plus --offline) build and test the whole
# workspace.
if stage_begin "cargo build --release --offline"; then
cargo build --release --offline
stage_end
fi

if stage_begin "cargo test -q --offline"; then
cargo test -q --offline
stage_end
fi

if stage_begin "seqbench contract (benchmark/ builds + tests against the workspace)"; then
# benchmark/ is its own workspace (the acceptance pipeline builds it from a
# fresh checkout) and calls the public API of seqd, jsonlite, patterndb and
# sequence-rtg directly, so a signature change there breaks it without
# breaking anything above. Build and unit-test it here, into the workspace's
# target directory so the dependencies are compiled once.
CARGO_TARGET_DIR="$(pwd)/target" \
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
# The build rewrites benchmark/Cargo.lock when a workspace crate's
# [dependencies] changed; the lock is frozen with the rest of benchmark/.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code -- benchmark/Cargo.lock \
    || { echo "benchmark/Cargo.lock changed: a workspace crate's [dependencies] changed," \
              "which only a benchmark issue may do" >&2; exit 1; }
fi
CARGO_TARGET_DIR="$(pwd)/target" \
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
stage_end
fi

if stage_begin "protocol torture + group commit (release, optimised wire path)"; then
# The adversarial wire suites run twice on purpose: the workspace test run
# above exercises them with debug assertions (including the UTF-8 re-check
# inside jsonlite's unchecked borrow path), and this release run exercises
# the exact optimised code the benchmarks and production builds ship.
cargo test -q --release --offline -p seqd --test protocol_torture --test group_commit
stage_end
fi

if stage_begin "pattern-set memory (release, counted at the allocator)"; then
# The workspace test run above already ran this binary unoptimised; the
# bytes a compiled PatternSet holds are asserted again on the layout the
# daemon ships.
cargo test -q --release --offline --test pattern_set_memory
stage_end
fi

if stage_begin "arrival-batch memory (release, counted at the allocator)"; then
# Same reason: what an open batch holds (residue as bytes, matched records
# as counts) and what an export holds while it streams, on the optimised
# layout.
cargo test -q --release --offline -p sequence-rtg --test arrival_memory
stage_end
fi

if stage_begin "ingest-WAL memory (release, counted at the allocator)"; then
# Same reason: what the WAL holds per acked-but-unreleased record, and that
# release gives it back, on the optimised layout.
cargo test -q --release --offline -p seqd --test wal_memory
stage_end
fi

if stage_begin "pattern-store transaction memory (release, counted at the allocator)"; then
# And again: what an open transaction on a 20 000-pattern store holds, and
# that rollback and commit give it back.
cargo test -q --release --offline -p patterndb --test txn_memory
stage_end
fi

if stage_begin "bench smoke (1 sample, JSON to a scratch file)"; then
# One warm-up + one sample per benchmark of every bench target, so no target
# exists that CI does not run. Each binary appends its JSON to the scratch
# file; the recorded results/ trajectories are not touched.
: > "${smoke_json}"
TESTKIT_BENCH_SAMPLES=1 TESTKIT_BENCH_JSON="${smoke_json}" \
  cargo bench -q --offline -p bench >/dev/null
grep -q '"id":"parser/match_against_learned_set/1000"' "${smoke_json}"
grep -q '"id":"scanner/parse_only"' "${smoke_json}"
echo "    bench smoke OK"
stage_end
fi

if stage_begin "seqbench output checks"; then
# All four workloads, untraced, once. run.sh exits non-zero when a line sent
# does not come back counted with its WAL released; the checker holds the
# quality values that repeat exactly on every run.
CARGO_TARGET_DIR="$(pwd)/target" bash benchmark/run.sh \
  > "${smoke_json}.seqbench" 2> "${smoke_json}.seqbench.log" \
  || { cat "${smoke_json}.seqbench.log" >&2; exit 1; }
check_seqbench_output "${smoke_json}.seqbench"
echo "    seqbench output checks OK"
stage_end
fi

if stage_begin "accuracy regression gate (LogHub-2.0 grouping accuracy vs frozen baseline)"; then
# The quality floor: re-score the scaled-down
# fixed-seed LogHub-2.0 corpora live (all 14 families, 2000 lines each —
# deterministic seed->corpus, so same code means same scores), then hold
# sequence-rtg's per-family grouping accuracy against the frozen
# results/BENCH_accuracy.baseline.json three ways:
#   1. no family may drop more than 2 points (0.020),
#   2. no family's split lines or merged lines may rise above the
#      baseline's (the two halves of the grouping gap), and
#   3. on families where the recorded run beats the Drain baseline,
#      the live run must still beat Drain.
./target/release/bench-accuracy --out results/BENCH_accuracy.json \
  2> "${smoke_json}.acc.log" \
  || { cat "${smoke_json}.acc.log" >&2; exit 1; }
# "family score" table of one tool's grouping accuracy, sorted for join.
accuracy_scores() {
  sed -n 's|.*"id":"accuracy/\([^"]*\)/'"$1"'".*"grouping_accuracy":\([0-9.]*\).*|\1 \2|p' "$2" \
    | sort
}
accuracy_scores sequence-rtg results/BENCH_accuracy.baseline.json > "${smoke_json}.acc.base"
accuracy_scores sequence-rtg results/BENCH_accuracy.json > "${smoke_json}.acc.cur"
[[ -s "${smoke_json}.acc.base" && -s "${smoke_json}.acc.cur" ]] \
  || { echo "sequence-rtg records missing from results/BENCH_accuracy*.json" >&2; exit 1; }
gate_drop_table "${smoke_json}.acc.base" "${smoke_json}.acc.cur" 0.020 \
  "REGRESSION: grouping accuracy dropped >2 points vs baseline"
# "family split merged" table of sequence-rtg's rows, sorted for join.
accuracy_gap() {
  sed -n 's|.*"id":"accuracy/\([^"]*\)/sequence-rtg".*"split_lines":\([0-9]*\),"merged_lines":\([0-9]*\).*|\1 \2 \3|p' "$1" \
    | sort
}
accuracy_gap results/BENCH_accuracy.baseline.json > "${smoke_json}.acc.gapbase"
accuracy_gap results/BENCH_accuracy.json > "${smoke_json}.acc.gapcur"
[[ -s "${smoke_json}.acc.gapbase" && -s "${smoke_json}.acc.gapcur" ]] \
  || { echo "split/merged lines missing from results/BENCH_accuracy*.json" >&2; exit 1; }
join "${smoke_json}.acc.gapbase" "${smoke_json}.acc.gapcur" | awk '
  {
    printf "    %-14s split %4d -> %4d, merged %4d -> %4d\n", $1, $2, $4, $3, $5
    if ($4 > $2 || $5 > $3) { bad = 1 }
  }
  END {
    if (bad) {
      printf "    %s\n", "REGRESSION: split or merged lines rose above the baseline" > "/dev/stderr"
      exit 1
    }
  }'
accuracy_scores drain results/BENCH_accuracy.baseline.json > "${smoke_json}.acc.drbase"
accuracy_scores drain results/BENCH_accuracy.json > "${smoke_json}.acc.drcur"
join "${smoke_json}.acc.base" "${smoke_json}.acc.drbase" \
  | awk '$2 > $3 { print $1 }' > "${smoke_json}.acc.beats"
if [[ -s "${smoke_json}.acc.beats" ]]; then
  join "${smoke_json}.acc.cur" "${smoke_json}.acc.drcur" \
    | join "${smoke_json}.acc.beats" - | awk '
    {
      printf "    %-14s rtg %.4f vs drain %.4f (recorded win)\n", $1, $2, $3
      if ($2 <= $3) { bad = 1 }
    }
    END {
      if (bad) {
        printf "    %s\n", "REGRESSION: sequence-rtg no longer beats Drain on a recorded-win family" > "/dev/stderr"
        exit 1
      }
    }'
fi
rm -f "${smoke_json}".acc.*
# Per-family scoring time rides into results/ci_timings.json as its own
# pseudo-stage, so a family whose scoring blows up is visible by name.
while read -r fam ms; do
  ci_stage_names+=("accuracy: ${fam}")
  ci_stage_ms+=("${ms}")
done < <(sed -n 's/.*"family":"\([^"]*\)".*"elapsed_ms":\([0-9.]*\).*/\1 \2/p' \
    results/BENCH_accuracy.json \
  | awk '{ if (!($1 in sum)) order[++n] = $1; sum[$1] += $2 }
         END { for (i = 1; i <= n; i++) printf "%s %d\n", order[i], sum[order[i]] }')
echo "    accuracy gate OK"
stage_end
fi

if stage_begin "seqd smoke (start -> ingest -> /healthz -> shutdown)"; then
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 1000 \
  --store "${seqd_store}/store" 2> "${seqd_log}" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}")
seqd_http "${port}" GET /healthz
# To a file, not a pipe: grep -q would close the pipe on first match and the
# load generator's later status lines would die on EPIPE before the shutdown
# request goes out.
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 2000 --shutdown \
  > "${seqd_log}.loadgen"
grep -q '"received":2000,"accepted":2000' "${seqd_log}.loadgen"
wait "${seqd_pid}"
seqd_pid=""
echo "    seqd smoke OK"
stage_end
fi

if stage_begin "metrics contract (scrape /metrics -> promlint -> golden name set)"; then
# A live daemon's exposition must lint clean (every series carries # HELP
# and # TYPE, histograms cumulative and +Inf-terminated) and export exactly
# the metric names recorded in tests/golden/metrics_names.txt — renaming or
# dropping a series is an observability API break and must be deliberate.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 1000 \
  --store "${seqd_store}/contract" 2> "${seqd_log}.contract" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.contract")
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 500 > /dev/null
seqd_http_body "${port}" /metrics > "${seqd_log}.metrics"
./target/release/promlint "${seqd_log}.metrics" \
  || { echo "promlint failed on a live /metrics scrape" >&2; exit 1; }
./target/release/promlint --names "${seqd_log}.metrics" \
  | diff - tests/golden/metrics_names.txt \
  || { echo "/metrics name set diverged from tests/golden/metrics_names.txt" >&2; exit 1; }
seqd_http "${port}" POST /shutdown
wait "${seqd_pid}"
seqd_pid=""
echo "    metrics contract OK"
stage_end
fi

if stage_begin "memory attribution (/debug/memory owners + allocator-free vs RSS)"; then
# What the daemon's resident set grew by under a 176-service load must be
# named in /debug/memory: the owners plus the allocator's free bytes cover
# at least 80 % of VmRSS net of the idle daemon's.
./target/release/seqd --addr 127.0.0.1:0 --shards 1 --pollers 1 --miners 1 \
  --store "${seqd_store}/memory" 2> "${seqd_log}.memory" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.memory")
# One number of the /debug/memory body.
memory_field() { sed -n 's/.*"'"$2"'":\(-\{0,1\}[0-9.]*\).*/\1/p' "$1"; }
seqd_http_body "${port}" /debug/memory > "${seqd_log}.memory.idle"
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 200000 --services 176 \
  > /dev/null
seqd_http_body "${port}" /debug/memory > "${seqd_log}.memory.end"
idle=$(memory_field "${seqd_log}.memory.idle" resident_bytes)
rss=$(memory_field "${seqd_log}.memory.end" resident_bytes)
owned=$(memory_field "${seqd_log}.memory.end" owned_bytes)
free=$(memory_field "${seqd_log}.memory.end" allocator_free_bytes)
awk -v idle="${idle}" -v rss="${rss}" -v owned="${owned}" -v free="${free}" 'BEGIN {
  grown = rss - idle
  share = grown > 0 ? (owned + free) / grown : 1
  printf "    RSS %.1f MiB (idle %.1f): owners %.1f + allocator-free %.1f MiB = %.0f%% of the growth\n",
    rss / 1048576, idle / 1048576, owned / 1048576, free / 1048576, 100 * share
  if (share < 0.80) { print "    /debug/memory names less than 80% of the RSS growth" > "/dev/stderr"; exit 1 }
}'
seqd_http "${port}" POST /shutdown
wait "${seqd_pid}"
seqd_pid=""
echo "    memory attribution OK"
stage_end
fi

if stage_begin "seqd crash-recovery smoke (kill -9 mid-batch -> restart -> WAL replay)"; then
# Reference: the same fixed-seed corpus through a daemon that drains cleanly.
# --batch-size far above the corpus keeps all 500 records in residue, so the
# crashed run below dies with everything receipted but nothing flushed.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 100000 \
  --store "${seqd_store}/clean" 2> "${seqd_log}.clean" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.clean")
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 500 --seed 7 \
  --shutdown > /dev/null
wait "${seqd_pid}"
seqd_pid=""

# Crash run: ingest the corpus (the receipt means it is fsynced in the WAL),
# then SIGKILL — no drain, no flush, no checkpoint.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 100000 \
  --store "${seqd_store}/crash" 2> "${seqd_log}.crash" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.crash")
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 500 --seed 7 \
  > "${seqd_log}.crash.loadgen"
grep -q '"received":500,"accepted":500' "${seqd_log}.crash.loadgen"
kill -9 "${seqd_pid}"
wait "${seqd_pid}" 2>/dev/null || true
seqd_pid=""
wal_bytes=$(cat "${seqd_store}/crash/ingest-wal/"*.wal | wc -c)
[[ "${wal_bytes}" -gt 0 ]] || { echo "ingest WAL empty after kill -9" >&2; exit 1; }

# Restart on the same store: the WAL must replay all 500 before the drain.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 100000 \
  --store "${seqd_store}/crash" 2> "${seqd_log}.recover" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.recover")
seqd_http "${port}" POST /shutdown
wait "${seqd_pid}"
seqd_pid=""
# The drained counters must show the full replay and the intact invariant.
grep -q 'drained — ingested 500 .* rejected 0 malformed 0 dropped 0 replayed 500' \
  "${seqd_log}.recover" \
  || { echo "recovery counters wrong:" >&2; cat "${seqd_log}.recover" >&2; exit 1; }
# A fully-released WAL holds nothing for the next start.
wal_bytes=$(cat "${seqd_store}/crash/ingest-wal/"*.wal | wc -c)
[[ "${wal_bytes}" -eq 0 ]] || { echo "WAL not released after drain" >&2; exit 1; }
# The recovered store equals the crash-free run (grok export is
# deterministic per pattern: SHA1(pattern ‖ service) ids, no timestamps).
./target/release/sequence-rtg --db "${seqd_store}/clean" --export grok --quiet \
  < /dev/null | grep add_tag | sort > "${seqd_log}.clean.patterns"
./target/release/sequence-rtg --db "${seqd_store}/crash" --export grok --quiet \
  < /dev/null | grep add_tag | sort > "${seqd_log}.crash.patterns"
[[ -s "${seqd_log}.clean.patterns" ]] || { echo "clean run mined nothing" >&2; exit 1; }
diff -u "${seqd_log}.clean.patterns" "${seqd_log}.crash.patterns" \
  || { echo "recovered store diverged from the crash-free run" >&2; exit 1; }
echo "    crash-recovery smoke OK"
stage_end
fi

if stage_begin "old store migrates (fixture store -> every export and snapshot, twice)"; then
# crates/patterndb/tests/fixtures/store keeps each example as a row of its
# own; the first open moves them into the examples log (examples.0.log) and
# points each pattern's row at its bodies. The YAML export lists every
# example, and must be byte for byte what the build before the fold
# exported from the same files (tests/golden/fixture_store.yaml). The
# checkpointed snapshot must be byte for byte
# tests/golden/fixture_store.snapshot.sql, recorded once for the row that
# keeps its examples' location. The Grok and syslog-ng exports must be byte
# for byte what the build before streamed exports wrote
# (tests/golden/fixture_store.grok, fixture_store.syslog-ng.xml): the
# syslog-ng document opens a ruleset per service as the rows go by. The
# second open must change nothing: same exports, same snapshot, same
# examples log.
cp -r crates/patterndb/tests/fixtures/store "${seqd_store}/fixture"
for open in first second; do
  ./target/release/sequence-rtg --db "${seqd_store}/fixture" --export yaml --quiet \
    < /dev/null > "${seqd_log}.fixture.yaml"
  diff -u tests/golden/fixture_store.yaml "${seqd_log}.fixture.yaml" \
    || { echo "the ${open} open's export diverged from tests/golden/fixture_store.yaml" >&2; exit 1; }
  cp "${seqd_store}/fixture/snapshot.sql" "${seqd_log}.fixture.${open}"
  cp "${seqd_store}/fixture/examples.0.log" "${seqd_log}.fixture.${open}.examples"
  cmp tests/golden/fixture_store.snapshot.sql "${seqd_log}.fixture.${open}" \
    || { echo "the ${open} open's snapshot diverged from tests/golden/fixture_store.snapshot.sql" >&2; exit 1; }
  for golden in fixture_store.grok:grok fixture_store.syslog-ng.xml:syslog-ng; do
    ./target/release/sequence-rtg --db "${seqd_store}/fixture" --export "${golden#*:}" --quiet \
      < /dev/null > "${seqd_log}.fixture.export"
    cmp "tests/golden/${golden%%:*}" "${seqd_log}.fixture.export" \
      || { echo "the ${open} open's ${golden#*:} export diverged from tests/golden/${golden%%:*}" >&2; exit 1; }
  done
done
cmp "${seqd_log}.fixture.first" "${seqd_log}.fixture.second" \
  || { echo "the second open of the migrated store changed it" >&2; exit 1; }
cmp "${seqd_log}.fixture.first.examples" "${seqd_log}.fixture.second.examples" \
  || { echo "the second open of the migrated store changed its examples log" >&2; exit 1; }
echo "    old store migrates OK"
stage_end
fi

if stage_begin "dependency audit: workspace crates only"; then
# Every package cargo can see must live in this repository. A single
# registry/git dependency breaks the offline guarantee, so fail on any
# `cargo tree` line that is not a workspace member (path = /root/repo/...).
packages=$(cargo tree --offline --prefix none --format '{p}' \
  | sed 's/ (\*)$//' | sed '/^$/d' | sort -u)
external=$(grep -v "($(pwd)" <<<"${packages}" || true)
if [[ -n "${external}" ]]; then
  echo "non-workspace dependencies detected:" >&2
  echo "${external}" >&2
  exit 1
fi
count=$(wc -l <<<"${packages}")
echo "    ${count} packages, all in-tree"
stage_end
fi

if [[ -n "${STAGE_FILTER}" ]]; then
  # A filtered run is a partial pipeline: leave the recorded full-run
  # timings alone and skip the timing gate.
  echo "==> CI stage timings skipped (--stage filter active)"
  echo "CI OK"
  exit 0
fi

echo "==> CI stage timings"
# Write the timings record, print the summary table, and gate each stage
# against the recorded baseline: >3x the baseline seconds plus a 15 s grace
# (absorbs scheduler noise on sub-second stages) fails the run. The baseline
# records *cold-cache* times for the compile-heavy stages (build/test/bench
# smoke), so a fresh clone passes; warm runs are far under the limit.
{
  echo '{"stages":['
  for i in "${!ci_stage_names[@]}"; do
    sep=$([[ "$i" -gt 0 ]] && echo ',' || true)
    printf '%s{"stage":"%s","seconds":%d.%03d}\n' \
      "${sep}" "${ci_stage_names[$i]}" \
      $(( ci_stage_ms[i] / 1000 )) $(( ci_stage_ms[i] % 1000 ))
  done
  echo ']}'
} > results/ci_timings.json
# `|` delimiter: stage names contain `/` (e.g. "/healthz").
stage_seconds() {
  sed -n 's|.*{"stage":"'"$1"'","seconds":\([0-9.]*\)}.*|\1|p' "$2"
}
timing_bad=0
for i in "${!ci_stage_names[@]}"; do
  name="${ci_stage_names[$i]}"
  cur=$(stage_seconds "${name}" results/ci_timings.json)
  base=$(stage_seconds "${name}" results/ci_timings.baseline.json 2>/dev/null || true)
  if [[ -z "${base}" ]]; then
    printf '    %-68s %8.1fs (no baseline)\n' "${name}" "${cur}"
    continue
  fi
  verdict=$(awk -v base="${base}" -v cur="${cur}" 'BEGIN {
    limit = 3 * base + 15
    printf "%.1fs -> %.1fs (limit %.1fs) %s", base, cur, limit, (cur > limit) ? "SLOW" : "ok"
  }')
  printf '    %-68s %s\n' "${name}" "${verdict}"
  if [[ "${verdict}" == *SLOW ]]; then timing_bad=1; fi
done
if [[ "${timing_bad}" -ne 0 ]]; then
  echo "    REGRESSION: a CI stage took >3x its baseline (+15s grace)" >&2
  exit 1
fi

echo "CI OK"
