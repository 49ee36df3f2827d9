#!/usr/bin/env bash
# Tier-1 gate: every change must pass this before merging (README §Testing).
#
# Runs, in order:
#   1. release build of the whole workspace, which must leave the
#      committed Cargo.lock byte for byte as it is: `--locked` is not
#      enough, because it passes a lock that still lists packages no
#      manifest names, and the plain build then prunes them
#   2. the full test suite (unit + integration + vendored stand-ins)
#   3. doctests (kept separate so a doc regression is named as such)
#   4. rustdoc with warnings denied (broken intra-doc links fail the gate)
#   5. clippy with warnings denied
#   6. the fault matrix (docs/RESILIENCE.md): the fault property suite
#      under several fixed fault seeds; then every test of the bench crate
#      that the normal suite ignores as slow (the faults, obs, fleet,
#      quality, policy, wire and scenarios runners, each run twice at a
#      reduced scale and byte-compared), on one test thread because the
#      obs snapshot test shares the process-wide obs registry
#   7. the observability gate (docs/OBSERVABILITY.md): no std::time in the
#      telemetry/virtual-clock paths, `repro obs` byte-identical at
#      PILOTE_THREADS 1 vs 4, and a PILOTE_OBS=0 kill-switch run
#   8. the fleet gate (docs/FLEET.md): `repro fleet` run twice plus once
#      at PILOTE_THREADS=4, all three JSON outputs byte-compared
#   9. the quality gate (docs/QUALITY.md): `repro quality` run twice plus
#      once at PILOTE_THREADS=4, BENCH_quality.json and
#      trace_quality.json byte-compared; the trace must parse as JSON
#      with a non-empty traceEvents array and the A/B demo must show the
#      re-trained arm alerting while the PILOTE arm does not
#  10. the kernels gate (docs/KERNELS.md): `repro kernels` run twice plus
#      once at PILOTE_THREADS=4, the deterministic BENCH_kernels_check.json
#      byte-compared; oversubscribed rows must be flagged and claim no
#      speedup, and the packed GEMM must not lose to the legacy loop
#  11. the docs gate: every relative markdown link in README/DESIGN/
#      EXPERIMENTS/docs resolves, and every docs/*.md is reachable from
#      README.md by following links
#  12. the scaling gate (docs/SCALING.md): `repro fleet --scale large`
#      at a reduced device count, run twice plus once at
#      PILOTE_THREADS=4, BENCH_fleet_large.json byte-compared
#  13. the wire gate (docs/WIRE.md): `repro wire` run twice plus once at
#      PILOTE_THREADS=4, BENCH_wire.json byte-compared; i8-delta must
#      move fewer federated bytes than f32-full and undercut the
#      JSON-f32 baseline ≥4× at <1 point of old-class accuracy loss
#  14. the scenarios gate (docs/METRICS.md): `repro scenarios` run twice
#      plus once at PILOTE_THREADS=4, BENCH_scenarios.json byte-compared;
#      every strategy's accuracy matrix must cover the full schedule and
#      PILOTE's final forgetting must stay strictly below re-trained's
#  15. the index gate: `repro index` over the committed results/ BENCH
#      files must parse every one, resolve every headline metric, and
#      reproduce the committed BENCH_index.json byte-for-byte
#  16. the A4 gate (EXPERIMENTS.md): `repro ablate-strategies --quick` run
#      twice plus once at PILOTE_THREADS=4, ablate_strategies.json
#      byte-compared; its rows must be exactly pilote, naive-finetune,
#      retrained, gdumb, ewc, lwf in that order, every accuracy in [0, 1]
#  17. the reproduce gate: the first runs of the obs, fleet, quality,
#      policy and wire gates, plus one `repro faults --quick` run, must
#      equal the committed results/ files byte for byte — seven files
#      (BENCH_scenarios.json is committed at default scale and
#      BENCH_fleet_large.json at 10k devices, so neither is compared);
#      then one `repro timing` run must equal results/timing.json in
#      every field but `epoch_seconds_host`, which is host time
#  18. the example gate: `cargo run --release --example magneto_platform`
#      must complete its federated round on a two-device fleet
#  19. the perfbench gate: build and test the perfbench package
#      (perfbench/Cargo.toml, outside the workspace), so a change to an
#      API it imports fails here rather than at benchmark time
#  20. the SIMD tier matrix (docs/KERNELS.md): the pilote-tensor tests,
#      the kernel property suite, the layer property suite and the
#      allocation suite again under PILOTE_SIMD=avx2 and under
#      PILOTE_SIMD=baseline, so every tier's row kernel and packed tiles
#      are checked, and so are the accumulate epilogue `Dense::backward`
#      adds dW through and each tier's row path allocating nothing but its
#      output; a cap above the host's tier changes nothing, so the step is
#      safe on any host
#
# Usage: ./scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

repro() { cargo run --release -q -p pilote-bench --bin repro -- "$@"; }

# determinism_gate TAG "REPRO ARGS" FILE...: runs `repro REPRO ARGS` twice
# and once at PILOTE_THREADS=4, into $obs_dir/TAG1, TAG2 and TAG4, then
# byte-compares every FILE of the first run against the other two.
determinism_gate() {
  local tag="$1" args="$2" file
  shift 2
  step "repro $args: byte-identical across runs and at PILOTE_THREADS=4"
  # $args is unquoted on purpose: it splits into the runner's arguments.
  repro $args --out "$obs_dir/${tag}1"
  repro $args --out "$obs_dir/${tag}2"
  PILOTE_THREADS=4 repro $args --out "$obs_dir/${tag}4"
  for file in "$@"; do
    cmp "$obs_dir/${tag}1/$file" "$obs_dir/${tag}2/$file"
    cmp "$obs_dir/${tag}1/$file" "$obs_dir/${tag}4/$file"
  done
}

step "cargo build --workspace --release (Cargo.lock must stay as committed)"
lock_copy="$(mktemp)"
trap 'rm -f "$lock_copy"' EXIT
cp Cargo.lock "$lock_copy"
cargo build --workspace --release
if ! cmp -s "$lock_copy" Cargo.lock; then
  diff "$lock_copy" Cargo.lock >&2 || true
  echo "build gate: the build rewrote Cargo.lock; commit the Cargo.lock it wrote" >&2
  exit 1
fi
rm -f "$lock_copy"

step "cargo test --workspace -q"
cargo test --workspace -q

step "cargo test --workspace --doc -q"
cargo test --workspace --doc -q

step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

for seed in 11 4242 20230328; do
  step "fault matrix: cargo test --release --test fault_props (PILOTE_FAULT_SEED=$seed)"
  PILOTE_FAULT_SEED="$seed" cargo test --release --test fault_props -q
done

step "bench: the runner tests the normal suite ignores as slow (release, one thread)"
cargo test --release -p pilote-bench -- --ignored --test-threads=1

# --- observability gate (docs/OBSERVABILITY.md) ---------------------------

step "obs: no host clock in the telemetry / virtual-clock paths"
# crates/obs must not import std::time at all; magneto's edge loop must not
# measure with Instant (device time is modeled from dispatched flops).
if grep -rn 'use std::time\|Instant' crates/obs/src/; then
  echo "obs gate: crates/obs must not touch std::time" >&2; exit 1
fi
if grep -n 'use std::time\|Instant' crates/magneto/src/edge.rs; then
  echo "obs gate: magneto::edge must not measure host time" >&2; exit 1
fi

step "obs: repro obs byte-identical at PILOTE_THREADS 1 vs 4"
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
PILOTE_THREADS=1 repro obs --quick --out "$obs_dir/t1"
PILOTE_THREADS=4 repro obs --quick --out "$obs_dir/t4"
cmp "$obs_dir/t1/BENCH_obs.json" "$obs_dir/t4/BENCH_obs.json"

step "obs: PILOTE_OBS=0 kill-switch run"
PILOTE_OBS=0 repro obs --quick --out "$obs_dir/off"

# --- fleet gate (docs/FLEET.md) -------------------------------------------

determinism_gate f "fleet --quick" BENCH_fleet.json

# --- quality gate (docs/QUALITY.md) ---------------------------------------

determinism_gate q "quality --quick" BENCH_quality.json trace_quality.json

step "quality: trace integrity + A/B alert split"
python3 - "$obs_dir/q1" << 'EOF'
import json, sys
out = sys.argv[1]
trace = json.load(open(f"{out}/trace_quality.json"))
events = trace["traceEvents"]
assert events, "trace_quality.json: traceEvents must be non-empty"
names = {e["name"] for e in events}
for phase in ("fleet.deploy", "fleet.session", "edge.update",
              "fleet.federated_round", "edge.quality_sample",
              "fleet.telemetry_rollup"):
    assert phase in names, f"trace missing a {phase} span"
bench = json.load(open(f"{out}/BENCH_quality.json"))
ab = bench["ab_demo"]
assert ab["pilote"]["alerts"] == 0, f"PILOTE arm must not alert: {ab}"
assert ab["retrained"]["alerts"] >= 1, f"re-trained arm must alert: {ab}"
print(f"quality gate: {len(events)} trace events, "
      f"A/B alerts pilote={ab['pilote']['alerts']} "
      f"retrained={ab['retrained']['alerts']}")
EOF

# --- policy gate (docs/POLICY.md) -----------------------------------------

determinism_gate p "policy --quick" BENCH_policy.json

step "policy: closed-loop A/B — canary halt, repair ladder, fewer alerts"
python3 - "$obs_dir/p1" << 'EOF'
import json, sys
out = sys.argv[1]
bench = json.load(open(f"{out}/BENCH_policy.json"))
off, on = bench["policy_off"], bench["policy_on"]
summary = on["policy"]["summary"]
assert summary["halts"] >= 1, f"the poisoned canary must halt: {summary}"
assert summary["quarantines"] >= 2, f"both offenders must be quarantined: {summary}"
assert summary["degrades"] >= 1, f"the repeat offender must degrade: {summary}"
assert summary["rounds_completed"] >= 1, f"clean rounds must reach the fleet stage: {summary}"
assert on["forgetting_alerts"] < off["forgetting_alerts"], (
    f"the closed loop must end with strictly fewer forgetting alerts: "
    f"on={on['forgetting_alerts']} off={off['forgetting_alerts']}")
assert on["mean_final_old_class_accuracy"] > off["mean_final_old_class_accuracy"], (
    "self-healing must preserve fleet accuracy")
plan = on["policy"]["stage_plan"]
staged = sorted(plan["canary"] + plan["cohort"] + plan["fleet"])
assert staged == list(range(bench["schedule"]["devices"])), (
    f"stage plan must partition the roster exactly: {plan}")
assert plan["canary"], f"the canary stage is never empty: {plan}"
print(f"policy gate: halts={summary['halts']} quarantines={summary['quarantines']} "
      f"degrades={summary['degrades']} alerts on/off="
      f"{on['forgetting_alerts']}/{off['forgetting_alerts']}")
EOF

# --- kernels gate (docs/KERNELS.md) ---------------------------------------

determinism_gate k "kernels" BENCH_kernels_check.json

step "kernels: oversubscription flagged honestly; packed GEMM never loses to the legacy loop"
python3 - "$obs_dir/k1" << 'EOF'
import json, sys
out = sys.argv[1]
bench = json.load(open(f"{out}/BENCH_kernels.json"))
host = bench["host_hardware_threads"]
for row in bench["results"]:
    over = row["threads"] > host
    assert row["oversubscribed"] == over, (
        f"row {row['kernel']}@{row['threads']} must be flagged "
        f"oversubscribed={over} on a {host}-thread host: {row}")
    if over:
        assert row["speedup_vs_serial"] is None, (
            f"oversubscribed row must not claim a speedup: {row}")
check = json.load(open(f"{out}/BENCH_kernels_check.json"))
assert check["gemm_checksum"] == check["legacy_gemm_checksum"], (
    "packed GEMM must be bitwise-identical to the legacy loop")
assert bench["packed_vs_legacy_speedup"] >= 1.0, (
    f"packed single-thread GEMM must not be slower than the pre-packing "
    f"loop: {bench['packed_vs_legacy_speedup']:.2f}x")
print(f"kernels gate: simd={bench['simd']} packed vs legacy "
      f"{bench['packed_vs_legacy_speedup']:.2f}x, "
      f"{sum(r['oversubscribed'] for r in bench['results'])} oversubscribed "
      f"row(s) flagged")
EOF

# --- docs gate ------------------------------------------------------------

step "docs: relative links resolve; every docs/*.md reachable from README.md"
python3 - << 'EOF'
import os, re, sys
from collections import deque

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
roots = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md"]
pages = [p for p in roots if os.path.exists(p)]
pages += sorted(f"docs/{f}" for f in os.listdir("docs") if f.endswith(".md"))

def links(page):
    out = []
    for target in LINK.findall(open(page).read()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        out.append(os.path.normpath(
            os.path.join(os.path.dirname(page), target.split("#")[0])))
    return out

dangling = [(page, t) for page in pages for t in links(page)
            if not os.path.exists(t)]
for page, target in dangling:
    print(f"docs gate: {page} links to missing path {target}", file=sys.stderr)
if dangling:
    sys.exit(1)

seen, queue = {"README.md"}, deque(["README.md"])
while queue:
    page = queue.popleft()
    for target in links(page):
        if target.endswith(".md") and target not in seen:
            seen.add(target)
            queue.append(target)
unreachable = [p for p in pages if p.startswith("docs/") and p not in seen]
for page in unreachable:
    print(f"docs gate: {page} is not reachable from README.md", file=sys.stderr)
if unreachable:
    sys.exit(1)
print(f"docs gate: {len(pages)} pages checked, "
      f"{len(seen)} reachable from README.md")
EOF

# --- scaling gate (docs/SCALING.md) ---------------------------------------

determinism_gate l "fleet --scale large --devices 96" BENCH_fleet_large.json

# --- wire gate (docs/WIRE.md) ---------------------------------------------

determinism_gate w "wire --quick" BENCH_wire.json

step "wire: i8-delta frontier — >=4x under the JSON baseline, <1 point accuracy loss"
python3 - "$obs_dir/w1" << 'EOF'
import json, sys
out = sys.argv[1]
bench = json.load(open(f"{out}/BENCH_wire.json"))
frontier = {r["config"]: r for r in bench["frontier"]}
f32_full, i8_delta = frontier["f32-full"], frontier["i8-delta"]
baseline = bench["json_f32_baseline_federated_bytes"]
savings = baseline / max(i8_delta["federated_bytes"], 1)
loss = f32_full["old_accuracy"] - i8_delta["old_accuracy"]
assert i8_delta["federated_bytes"] < f32_full["federated_bytes"], (
    f"i8-delta must move fewer federated bytes than f32-full: "
    f"{i8_delta['federated_bytes']} vs {f32_full['federated_bytes']}")
assert savings >= 4.0, (
    f"i8-delta must undercut the JSON-f32 baseline >=4x: {savings:.2f}x")
assert loss < 0.01, (
    f"i8-delta old-class accuracy loss must stay under 1 point: {loss:.4f}")
assert frontier["f32-delta"]["old_accuracy"] == f32_full["old_accuracy"], (
    "f32 delta encoding must be lossless")
print(f"wire gate: i8-delta {savings:.1f}x under JSON baseline, "
      f"old-class accuracy {i8_delta['old_accuracy']:.4f} vs "
      f"f32-full {f32_full['old_accuracy']:.4f}")
EOF

# --- scenarios gate (docs/METRICS.md) --------------------------------------

determinism_gate s "scenarios --quick" BENCH_scenarios.json

step "scenarios: matrices cover the schedule; PILOTE forgets less than re-trained"
python3 - "$obs_dir/s1" << 'EOF'
import json, sys
out = sys.argv[1]
bench = json.load(open(f"{out}/BENCH_scenarios.json"))
sessions = 1 + len(bench["schedule"]["increments"])
tasks = 1 + len(bench["schedule"]["increments"])
for name in ("pilote", "retrained", "pretrained"):
    arm = bench["strategies"][name]
    rows = arm["matrix"]["rows"]
    assert len(rows) == sessions, f"{name}: want {sessions} matrix rows, got {len(rows)}"
    for row in rows:
        assert len(row["accuracies"]) == tasks and len(row["known"]) == tasks, (
            f"{name}: ragged matrix row: {row}")
    s = arm["summary"]
    assert s["sessions"] == sessions and s["tasks"] == tasks, f"{name}: summary shape: {s}"
    assert len(s["forgetting_curve"]) == sessions, f"{name}: forgetting-curve length"
split = bench["ab_split"]
assert split["pilote_final_forgetting"] < split["retrained_final_forgetting"], (
    f"PILOTE must forget strictly less than the re-trained baseline: {split}")
fleet = bench["fleet"]
assert fleet["devices"] >= 1 and len(fleet["mean_forgetting_curve"]) >= sessions, (
    f"fleet rollup must span the schedule: {fleet}")
print(f"scenarios gate: pilote forgetting {split['pilote_final_forgetting']:.4f} "
      f"< retrained {split['retrained_final_forgetting']:.4f}; "
      f"{fleet['devices']}-device rollup")
EOF

# --- index gate ------------------------------------------------------------

step "index: committed BENCH files parse, headlines resolve, manifest reproduces"
idx_dir="$obs_dir/index"
mkdir -p "$idx_dir"
for f in results/BENCH_*.json; do
  [ "$(basename "$f")" = "BENCH_index.json" ] && continue
  cp "$f" "$idx_dir/"
done
repro index --out "$idx_dir"
cmp "$idx_dir/BENCH_index.json" results/BENCH_index.json

# --- A4 gate (EXPERIMENTS.md) ----------------------------------------------

determinism_gate a4 "ablate-strategies --quick" ablate_strategies.json

step "ablate-strategies: one row per arm, in order, accuracies in [0, 1]"
python3 - "$obs_dir/a41" << 'EOF'
import json, sys
rows = json.load(open(f"{sys.argv[1]}/ablate_strategies.json"))
names = [r["strategy"] for r in rows]
want = ["pilote", "naive-finetune", "retrained", "gdumb", "ewc", "lwf"]
assert names == want, f"A4 rows must be {want}, got {names}"
for r in rows:
    for key in ("accuracy", "old_accuracy", "new_accuracy"):
        assert 0.0 <= r[key] <= 1.0, f"{r['strategy']}: {key} out of [0, 1]: {r}"
print(f"A4 gate: {len(rows)} arms, pilote accuracy {rows[0]['accuracy']:.4f}")
EOF

# --- reproduce gate --------------------------------------------------------

step "committed --quick outputs reproduce byte for byte"
repro faults --quick --out "$obs_dir/x1"
for out in t1/BENCH_obs.json f1/BENCH_fleet.json q1/BENCH_quality.json \
           q1/trace_quality.json p1/BENCH_policy.json w1/BENCH_wire.json \
           x1/BENCH_faults.json; do
  cmp "$obs_dir/$out" "results/$(basename "$out")"
done

step "repro timing: results/timing.json reproduces but for its host-time epoch"
repro timing --out "$obs_dir/tm"
python3 - "$obs_dir/tm/timing.json" results/timing.json << 'EOF'
import json, sys
got, want = (json.load(open(path)) for path in sys.argv[1:3])
for run in (got, want):
    run.pop("epoch_seconds_host")
assert got == want, f"timing.json no longer reproduces: run {got}, committed {want}"
print(f"timing gate: {len(got)} fields equal the committed results/timing.json")
EOF

# --- example gate ----------------------------------------------------------

step "example: magneto_platform completes its two-device federated round"
cargo run --release -q --example magneto_platform | tee "$obs_dir/magneto_platform.txt"
grep -qx 'federated: round 1 complete across 2 devices' "$obs_dir/magneto_platform.txt"

# --- perfbench gate -------------------------------------------------------

step "perfbench: the benchmark package builds and its tests pass"
cargo test --release --manifest-path perfbench/Cargo.toml -q

# --- SIMD tier matrix (docs/KERNELS.md) -----------------------------------

for tier in avx2 baseline; do
  step "kernels at PILOTE_SIMD=$tier: pilote-tensor tests, the kernel, layer and allocation suites"
  PILOTE_SIMD="$tier" cargo test --release -p pilote-tensor -q
  PILOTE_SIMD="$tier" cargo test --release --test kernel_props --test layer_props \
    --test step_alloc_props -q
done

printf '\nci.sh: all gates passed\n'
