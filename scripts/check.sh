#!/usr/bin/env bash
# Repo gate, composable: `check.sh <step>...` runs the named stages in
# order, `check.sh all` (or no argument) runs the full gate. CI invokes
# the same steps one by one, so the gate and the workflow cannot
# diverge — tests/lint_budget.rs checks the STEPS list below against
# .github/workflows/ci.yml.
#
#   check.sh fmt     rustfmt --check, workspace then the benchmark package
#   check.sh lint    clippy, warnings denied: the determinism rules of clippy.toml,
#                    the panic/numeric `#![warn(clippy::...)]` lines in the crates,
#                    stale or reasonless `#[expect]`s (DESIGN.md §8) — and what
#                    fails on a snapshot field that a hand-written `save`
#                    destructure names but never writes: unused_variables;
#                    then the benchmark package under its own clippy.toml;
#                    then rustdoc over the workspace, warnings denied (broken
#                    or private intra-doc links)
#   check.sh build   release build
#   check.sh test    cargo test, workspace then the benchmark package
#   check.sh smoke   obs smoke (journal verified by edm-spec), checkpoint/resume
#                    smoke, edm-exp all at a tiny scale
#   check.sh scale   sharded-vs-sequential digest identity smoke
#   check.sh spec    edm-spec on a 1024-OSD sharded journal and two hostile ones
#                    (the corpus journals are verified by `test`, in fuzz_replay)
#   check.sh serve   edm-serve daemon: ingest pipeline, kill/resume, replay digest,
#                    dir: backend below the events obs level
#   check.sh fuzz    edm-fuzz smoke batches (seed 1, six scenarios; seed 11, 400)
#   check.sh model   analytic-model differential gate (edm-exp model-diff
#                    vs scripts/model_tolerances.json)
#   check.sh record  regenerates the paper record (edm-exp all --full --osds
#                    16,20, a few minutes) and cmps it with experiments_full.txt
#   check.sh tsan    ThreadSanitizer lane over shard + serve tests and the
#                    loopback daemon suite (advisory; skips cleanly without
#                    a nightly toolchain + rust-src)
#
# EDM_CHECK_QUICK=1 shrinks the expensive steps (test -> workspace lib
# tests only, smoke/scale/spec/serve/fuzz/model/record/tsan -> skipped)
# for local edit loops.
set -euo pipefail
cd "$(dirname "$0")/.."

STEPS="fmt lint build test smoke scale spec serve fuzz model record tsan"
QUICK="${EDM_CHECK_QUICK:-0}"

# Resolve a release binary inside the active target directory. The steps
# used to hardcode ./target/release/<bin>, which ran stale (or missing)
# binaries whenever CARGO_TARGET_DIR pointed the build somewhere else.
bin() {
    printf '%s/release/%s' "${CARGO_TARGET_DIR:-target}" "$1"
}

# Temp dirs live in an array cleaned by a single EXIT trap, so any number
# of steps can allocate scratch space without a later `trap ... EXIT`
# silently replacing (and leaking) an earlier step's cleanup. scratch_dir
# reports through the SCRATCH_DIR global rather than stdout: a command
# substitution would fork the append into a subshell, leaking the dir.
CLEANUP_DIRS=()
cleanup() {
    for d in "${CLEANUP_DIRS[@]-}"; do
        if [ -n "$d" ]; then
            rm -rf "$d"
        fi
    done
}
trap cleanup EXIT
scratch_dir() {
    SCRATCH_DIR="$(mktemp -d)"
    CLEANUP_DIRS+=("$SCRATCH_DIR")
}

# Offset of the first body byte of section <name> in snapshot <file>:
# walks the section headers (u32 name length, name, u64 body length,
# u32 CRC) after the 16-byte file header, as crates/snap/src/file.rs
# lays them out.
snap_body_offset() { # <file> <name>
    local pos=16 count name_len name body_len
    count=$(( $(od -An -tu4 --endian=little -j12 -N4 "$1") ))
    while [ "$count" -gt 0 ]; do
        name_len=$(( $(od -An -tu4 --endian=little -j"$pos" -N4 "$1") ))
        name="$(dd if="$1" bs=1 skip=$((pos + 4)) count="$name_len" 2> /dev/null)"
        body_len=$(( $(od -An -tu8 --endian=little -j$((pos + 4 + name_len)) -N8 "$1") ))
        pos=$((pos + 4 + name_len + 12))
        if [ "$name" = "$2" ]; then
            echo "$pos"
            return 0
        fi
        pos=$((pos + body_len))
        count=$((count - 1))
    done
    echo "snap_body_offset: no section '$2' in $1" >&2
    return 1
}

flip_byte() { # <file> <offset>
    local b
    b=$(( $(od -An -tu1 -j"$2" -N1 "$1") ^ 0xFF ))
    printf '%b' "$(printf '\\0%03o' "$b")" \
        | dd of="$1" bs=1 seek="$2" count=1 conv=notrunc 2> /dev/null
}

step_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
    cargo fmt --manifest-path benchmark/Cargo.toml -- --check
}

step_lint() {
    echo "==> cargo clippy (deny warnings)"
    # The two -W lints make every suppression an `#[expect]` with a
    # reason, in bins and tests too, where no lib-root attribute reaches.
    cargo clippy --locked --workspace --all-targets -- -D warnings \
        -W clippy::allow_attributes -W clippy::allow_attributes_without_reason
    echo "==> cargo clippy (benchmark package, deny warnings)"
    cargo clippy --offline --locked --manifest-path benchmark/Cargo.toml --all-targets -- \
        -D warnings -W clippy::allow_attributes -W clippy::allow_attributes_without_reason
    echo "==> cargo doc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps --workspace
}

step_build() {
    echo "==> cargo build --release"
    cargo build --locked --release
}

step_test() {
    if [ "$QUICK" = "1" ]; then
        echo "==> cargo test (quick: lib tests only)"
        cargo test -q --locked --workspace --lib
    else
        echo "==> cargo test"
        cargo test -q --locked
        # benchmark/ is a package of its own that reaches the crates only
        # through public functions: a change to one it calls fails here,
        # not in the benchmark pipeline.
        echo "==> cargo test (benchmark package)"
        cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
    fi
}

step_smoke() {
    if [ "$QUICK" = "1" ]; then
        echo "==> smoke skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> obs smoke (edm-sim --obs-level events + edm-probe --journal / --verify)"
    local obs_dir
    scratch_dir; obs_dir="$SCRATCH_DIR"
    cat > "$obs_dir/smoke.scn" <<'EOF'
trace home02
scale 0.004
osds 8
groups 4
policy EDM-HDF
schedule midpoint
force true
EOF
    "$(bin edm-sim)" "$obs_dir/smoke.scn" \
        --obs "$obs_dir/smoke.jsonl" --obs-level events > /dev/null
    # The probe exits nonzero if any journal line fails to parse.
    local probe_out
    probe_out="$("$(bin edm-probe)" --journal "$obs_dir/smoke.jsonl")"
    echo "$probe_out" | grep -q "trigger evaluations" \
        || { echo "obs smoke: no trigger evaluations in journal"; exit 1; }
    echo "$probe_out" | grep -q "ftl.block_erases" \
        || { echo "obs smoke: no erase counter in journal"; exit 1; }
    grep -q '"kind":"trigger_eval"' "$obs_dir/smoke.jsonl" \
        || { echo "obs smoke: trigger_eval event missing"; exit 1; }
    grep -q '"rsd":' "$obs_dir/smoke.jsonl" \
        || { echo "obs smoke: rsd field missing"; exit 1; }
    local event_count
    event_count="$(wc -l < "$obs_dir/smoke.jsonl")"
    [ "$event_count" -gt 0 ] || { echo "obs smoke: empty journal"; exit 1; }
    # edm-probe --verify exits nonzero on the first illegal transition.
    "$(bin edm-probe)" --verify "$obs_dir/smoke.jsonl" | grep -q "conformant" \
        || { echo "obs smoke: journal violates the EDM spec"; exit 1; }
    echo "obs smoke: $event_count journal lines, spec-conformant OK"
    # The metrics level writes the same JSONL, trailer records only, and
    # the same reader takes it.
    "$(bin edm-sim)" "$obs_dir/smoke.scn" \
        --obs "$obs_dir/metrics.jsonl" --obs-level metrics > /dev/null 2>&1
    probe_out="$("$(bin edm-probe)" --journal "$obs_dir/metrics.jsonl")" \
        || { echo "obs smoke: edm-probe --journal refused the metrics-level file"; exit 1; }
    echo "$probe_out" | grep -q "ftl.block_erases" \
        || { echo "obs smoke: no erase counter in the metrics-level file"; exit 1; }
    echo "obs smoke: metrics-level file read by edm-probe --journal OK"
    # A journal line the edm-obs reader cannot decode is `path:line` and
    # exit 1 through the CLI, never a panic (101), an abort (134) or a
    # made-up value: a device scope past u32, an event without its
    # fields, a trigger_eval without rsd, lambda and metric.
    local hostile code err
    cat > "$obs_dir/scope.jsonl" <<'EOF'
{"t_us":5,"osd":18446744073709551615,"kind":"block_erase","block":0,"erase_count":1,"moved_pages":0}
EOF
    cat > "$obs_dir/fields.jsonl" <<'EOF'
{"t_us":5,"osd":4000000000,"kind":"block_erase"}
EOF
    cat > "$obs_dir/trigger.jsonl" <<'EOF'
{"t_us":5,"kind":"trigger_eval","policy":"EDM-HDF","mean":1,"triggered":false,"sources":[],"destinations":[]}
EOF
    for hostile in scope fields trigger; do
        code=0
        err="$("$(bin edm-probe)" --journal "$obs_dir/$hostile.jsonl" 2>&1 > /dev/null)" || code=$?
        [ "$code" -eq 1 ] && grep -qF "$obs_dir/$hostile.jsonl:1: " <<< "$err" \
            || { echo "obs smoke: $hostile journal exited $code, want 1 and path:line: $err"; exit 1; }
    done
    echo "obs smoke: hostile journals refused with path:line OK"

    echo "==> checkpoint/resume smoke (edm-sim --checkpoint-* / --resume / edm-probe --snapshot)"
    # An uninterrupted run and a run resumed from a mid-run checkpoint
    # must print bit-identical reports and determinism digests, and end
    # their metrics journals with the same trailers for the facts the
    # run's tallies and the devices' wear counters own (the OSD fails
    # before the mid-run checkpoint).
    local ckpt_dir
    scratch_dir; ckpt_dir="$SCRATCH_DIR"
    cat > "$ckpt_dir/ckpt.scn" <<'EOF'
trace home02
scale 0.002
osds 8
policy EDM-CDF
schedule every-tick
fail 150000 1 rebuild
EOF
    "$(bin edm-sim)" "$ckpt_dir/ckpt.scn" \
        --checkpoint-every 0 --checkpoint-dir "$ckpt_dir/ckpts" \
        --obs "$ckpt_dir/uninterrupted.jsonl" --obs-level metrics \
        > "$ckpt_dir/uninterrupted.txt" 2> /dev/null
    local snap_count mid_snap
    snap_count="$(ls "$ckpt_dir"/ckpts/*.snap | wc -l)"
    [ "$snap_count" -ge 2 ] \
        || { echo "ckpt smoke: want >=2 checkpoints, got $snap_count"; exit 1; }
    mid_snap="$(ls "$ckpt_dir"/ckpts/*.snap | sed -n "$(( (snap_count + 1) / 2 ))p")"
    "$(bin edm-sim)" --resume "$mid_snap" \
        --obs "$ckpt_dir/resumed.jsonl" --obs-level metrics \
        > "$ckpt_dir/resumed.txt" 2> /dev/null
    diff "$ckpt_dir/uninterrupted.txt" "$ckpt_dir/resumed.txt" \
        || { echo "ckpt smoke: resumed run diverged from uninterrupted run"; exit 1; }
    local leg tallied='"name":"(sim\.(ops_completed|moved_objects|rebuilds_finished|device_failures)|ftl\.(block_erases|gc_page_moves)|response_us)"'
    for leg in uninterrupted resumed; do
        grep -E "$tallied" "$ckpt_dir/$leg.jsonl" > "$ckpt_dir/$leg.tallies"
    done
    [ "$(wc -l < "$ckpt_dir/uninterrupted.tallies")" -eq 7 ] \
        || { echo "ckpt smoke: want 7 tally trailers, got:"; cat "$ckpt_dir/uninterrupted.tallies"; exit 1; }
    diff "$ckpt_dir/uninterrupted.tallies" "$ckpt_dir/resumed.tallies" \
        || { echo "ckpt smoke: resumed run's tally trailers diverged"; exit 1; }
    grep -q "determinism digest 0x" "$ckpt_dir/resumed.txt" \
        || { echo "ckpt smoke: no determinism digest printed"; exit 1; }
    # A damaged checkpoint is refused through the CLI with its typed
    # error and exit 1, never a panic (101): one copy a byte short, one
    # with a byte of its `cluster` body flipped.
    local body_at damaged want
    cp "$mid_snap" "$ckpt_dir/short.snap"
    truncate -s -1 "$ckpt_dir/short.snap"
    cp "$mid_snap" "$ckpt_dir/flipped.snap"
    body_at="$(snap_body_offset "$ckpt_dir/flipped.snap" cluster)"
    flip_byte "$ckpt_dir/flipped.snap" "$body_at"
    for damaged in "short:snapshot truncated" "flipped:failed its CRC-32 check"; do
        want="${damaged#*:}"
        damaged="${damaged%%:*}"
        code=0
        err="$("$(bin edm-sim)" --resume "$ckpt_dir/$damaged.snap" 2>&1 > /dev/null)" || code=$?
        [ "$code" -eq 1 ] && grep -q "$want" <<< "$err" \
            || { echo "ckpt smoke: $damaged checkpoint exited $code, want 1 and '$want': $err"; exit 1; }
    done
    local probe_snap
    probe_snap="$("$(bin edm-probe)" --snapshot "$mid_snap")"
    echo "$probe_snap" | grep -q "embedded scenario" \
        || { echo "ckpt smoke: probe found no embedded scenario"; exit 1; }
    echo "$probe_snap" | grep -q "policy          EDM-CDF" \
        || { echo "ckpt smoke: probe manifest missing policy"; exit 1; }
    echo "ckpt smoke: $snap_count checkpoints, resume digest matches OK"

    echo "==> paper-record smoke (edm-exp all at a tiny scale + refused invocations)"
    # edm-exp is the paper record's only entry point: every experiment
    # must build, run and print its section, and a run that cannot be
    # built must be a one-line error with the documented exit code
    # (1 = cannot be built, 2 = unparseable arguments), not a backtrace.
    local exp_dir
    scratch_dir; exp_dir="$SCRATCH_DIR"
    "$(bin edm-exp)" all --scale 0.004 --osds 16,20 \
        > "$exp_dir/all.txt" 2> "$exp_dir/all.log" \
        || { echo "exp smoke: edm-exp all failed"; tail -n 20 "$exp_dir/all.log"; exit 1; }
    local ids sections title
    ids="$(grep -c '^== .* ==$' "$exp_dir/all.log")"
    sections=0
    for title in "Table 1:" "Figure 1(a)" "Figure 3:" "Figure 5 (16-OSDs)" \
        "Figure 6 (16-OSDs)" "Figure 7:" "Figure 8 (16-OSDs)" "Reliability (SIII.D)" \
        "Failure study" "wear-out trajectory" "Ablation: sigma sweep" \
        "Ablation: lambda sweep" "Ablation: group-count sweep" \
        "Ablation: migration schedule" "Ablation: temperature decay" \
        "Ablation: GC victim policy" "Differential:"; do
        grep -q "^$title" "$exp_dir/all.txt" \
            || { echo "exp smoke: no '$title' section on stdout"; exit 1; }
        sections=$((sections + 1))
    done
    [ "$ids" -eq "$sections" ] \
        || { echo "exp smoke: EXPERIMENT_IDS has $ids entries, $sections sections checked"; exit 1; }
    # Every entry of the claim list prints one `claim <id>: held k of n`.
    local claims printed
    claims="$(grep -c '^        id: "' crates/harness/src/experiments/claims.rs)"
    printed="$(grep -c '^claim ' "$exp_dir/all.txt")"
    [ "$claims" -gt 0 ] && [ "$printed" -eq "$claims" ] \
        || { echo "exp smoke: CLAIMS has $claims entries, stdout $printed claim lines"; exit 1; }
    local code
    code=0; "$(bin edm-probe)" nosuch EDM-HDF > /dev/null 2>&1 || code=$?
    [ "$code" -eq 2 ] || { echo "exp smoke: edm-probe on an unknown trace exited $code, want 2"; exit 1; }
    code=0; "$(bin edm-exp)" fig1 --osds 2 --scale 0.001 > /dev/null 2>&1 || code=$?
    [ "$code" -eq 1 ] || { echo "exp smoke: edm-exp on an unbuildable cluster exited $code, want 1"; exit 1; }
    echo "exp smoke: $sections sections, $printed claims, refused invocations exit 2 / 1 OK"
}

step_scale() {
    if [ "$QUICK" = "1" ]; then
        echo "==> scale skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> scale smoke (scenario shards 2 vs sequential digest)"
    # The group-sharded engine's contract: a sharded replay must print a
    # bit-identical report and determinism digest. The stride splits the
    # 4 groups into 2 placement components, so `shards 2` genuinely
    # runs the parallel path (asserted on the shard-plan line).
    local scale_dir
    scratch_dir; scale_dir="$SCRATCH_DIR"
    cat > "$scale_dir/scale.scn" <<'EOF'
trace home02
scale 0.004
osds 16
groups 4
objects_per_file 2
policy EDM-HDF
schedule every-tick
stride 2
affinity component
EOF
    { cat "$scale_dir/scale.scn"; echo "shards 2"; } > "$scale_dir/sharded.scn"
    "$(bin edm-sim)" "$scale_dir/scale.scn" \
        > "$scale_dir/sequential.txt" 2> /dev/null
    "$(bin edm-sim)" "$scale_dir/sharded.scn" \
        > "$scale_dir/sharded.txt" 2> "$scale_dir/sharded.log"
    grep -q "shard-plan: components=2 threads=2 active=true" "$scale_dir/sharded.log" \
        || { echo "scale smoke: sharded run fell back to the sequential path"; \
             cat "$scale_dir/sharded.log"; exit 1; }
    diff "$scale_dir/sequential.txt" "$scale_dir/sharded.txt" \
        || { echo "scale smoke: sharded report diverged from sequential"; exit 1; }
    grep -q "determinism digest 0x" "$scale_dir/sharded.txt" \
        || { echo "scale smoke: no determinism digest printed"; exit 1; }
    echo "scale smoke: sharded digest matches sequential OK"
}

step_spec() {
    if [ "$QUICK" = "1" ]; then
        echo "==> spec skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    # The smoke journal is verified by `smoke`, and every corpus journal
    # by the fuzz battery that `test` runs (tests/fuzz_replay.rs).
    local spec_dir
    scratch_dir; spec_dir="$SCRATCH_DIR"
    echo "==> spec sharded-journal identity (1024 OSDs, sequential vs sharded)"
    # Shard-aware journaling contract: per-shard buffers merge in fixed
    # component order, so the sharded journal is byte-identical to the
    # sequential one — and still a legal transition stream.
    cat > "$spec_dir/dc.scn" <<'EOF'
trace home02
scale 0.001
osds 1024
groups 32
objects_per_file 4
policy EDM-HDF
schedule every-tick
stride 4
affinity component
EOF
    { cat "$spec_dir/dc.scn"; echo "shards 4"; } > "$spec_dir/dc-par.scn"
    "$(bin edm-sim)" "$spec_dir/dc.scn" \
        --obs "$spec_dir/dc-seq.jsonl" --obs-level events > /dev/null
    "$(bin edm-sim)" "$spec_dir/dc-par.scn" \
        --obs "$spec_dir/dc-par.jsonl" --obs-level events > /dev/null
    cmp "$spec_dir/dc-seq.jsonl" "$spec_dir/dc-par.jsonl" \
        || { echo "spec: sharded journal diverged from sequential bytes"; exit 1; }
    "$(bin edm-probe)" --verify "$spec_dir/dc-par.jsonl" > /dev/null \
        || { echo "spec: 1024-OSD sharded journal violates the EDM spec"; exit 1; }
    echo "spec: 1024-OSD sharded journal byte-identical and conformant"

    echo "==> spec hostile journals (200 000-deep nesting, an integer past 2^53)"
    # Each must be a line-numbered violation and exit 1: an abort (a
    # recursive reader's stack overflow) or a rounded integer fails here.
    printf '%*s\n' 200000 '' | tr ' ' '[' > "$spec_dir/deep.jsonl"
    cat > "$spec_dir/bigint.jsonl" <<'EOF'
{"t_us":0,"kind":"run_meta","osds":4,"groups":2,"objects_per_file":2,"capacity_bytes":1073741824,"blocks_per_osd":8}
{"t_us":10,"osd":0,"kind":"block_erase","block":9007199254740993,"erase_count":1,"moved_pages":0}
EOF
    local rc err
    for name in deep bigint; do
        rc=0
        err="$("$(bin edm-probe)" --verify "$spec_dir/$name.jsonl" 2>&1 > /dev/null)" || rc=$?
        [ "$rc" -eq 1 ] && grep -q "violation:" <<< "$err" \
            || { echo "spec: $name journal exited $rc, want 1 with a violation: $err"; exit 1; }
    done
    grep -q "block 9007199254740993 out of range" <<< "$err" \
        || { echo "spec: integer past 2^53 not reported verbatim: $err"; exit 1; }
    echo "spec: hostile journals rejected with line-numbered violations"
}

# --- serve helpers: raw HTTP over bash /dev/tcp (no curl dependency) ---
serve_get() { # <port> <path> -> body on stdout
    exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
    printf 'GET %s HTTP/1.1\r\n\r\n' "$2" >&3
    local reply
    reply="$(cat <&3)"
    exec 3<&- 3>&-
    printf '%s' "${reply#*$'\r\n\r\n'}"
}

serve_post() { # <port> <path> [body-file] -> body on stdout
    local len=0
    if [ -n "${3:-}" ]; then
        len="$(wc -c < "$3")"
    fi
    exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
    {
        printf 'POST %s HTTP/1.1\r\nContent-Length: %s\r\n\r\n' "$2" "$len"
        if [ -n "${3:-}" ]; then cat "$3"; fi
    } >&3
    local reply
    reply="$(cat <&3)"
    exec 3<&- 3>&-
    case "$reply" in
        "HTTP/1.1 200"*) ;;
        *) echo "serve: POST $2 -> ${reply%%$'\r'*}" >&2; return 1 ;;
    esac
    printf '%s' "${reply#*$'\r\n\r\n'}"
}

serve_wait_port() { # <port-file>; sets SERVE_PORT
    local i
    for i in $(seq 1 200); do
        if [ -s "$1" ]; then
            SERVE_PORT="$(head -n1 "$1")"
            return 0
        fi
        sleep 0.05
    done
    echo "serve: daemon never wrote its port file $1"
    exit 1
}

serve_wait_health() { # <port> <healthz-substring> <description>
    local i
    for i in $(seq 1 1200); do
        if serve_get "$1" /healthz 2> /dev/null | grep -q "$2"; then
            return 0
        fi
        sleep 0.05
    done
    echo "serve: timed out waiting for $3"
    serve_get "$1" /healthz 2> /dev/null || true
    exit 1
}

step_serve() {
    if [ "$QUICK" = "1" ]; then
        echo "==> serve skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> serve gate (live daemon: ingest, kill/resume convergence, replay digest, backend)"
    local serve_dir
    scratch_dir; serve_dir="$SCRATCH_DIR"
    # The fuzz-corpus live scenario: crosses wear ticks and fires
    # migrations within a ~1200-op stream.
    cat > "$serve_dir/live.scn" <<'EOF'
trace random
scale 0.002
schedule every-tick
lambda 0.05
EOF
    "$(bin edm-serve)" --dump-ops "$serve_dir/live.scn" > "$serve_dir/ops.txt"
    local total_ops
    total_ops="$(wc -l < "$serve_dir/ops.txt")"
    [ "$total_ops" -gt 500 ] || { echo "serve: suspiciously short op stream"; exit 1; }

    # (1) Dilated live replay must reproduce the batch digest, and its
    # journal must conform to the EDM spec.
    local batch_digest
    batch_digest="$("$(bin edm-sim)" "$serve_dir/live.scn" 2> /dev/null \
        | grep -o "determinism digest 0x[0-9a-f]*" | grep -o "0x[0-9a-f]*")"
    [ -n "$batch_digest" ] || { echo "serve: edm-sim printed no digest"; exit 1; }
    "$(bin edm-serve)" "$serve_dir/live.scn" --speed 100000 \
        --port-file "$serve_dir/replay.port" --journal "$serve_dir/replay.jsonl" \
        > /dev/null &
    local replay_pid=$!
    serve_wait_port "$serve_dir/replay.port"
    serve_wait_health "$SERVE_PORT" '"done":true' "the dilated replay to finish"
    serve_get "$SERVE_PORT" /stats > "$serve_dir/replay-stats.json"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$replay_pid"
    grep -q "\"digest\":\"$batch_digest\"" "$serve_dir/replay-stats.json" \
        || { echo "serve: live replay digest diverged from edm-sim $batch_digest"; \
             cat "$serve_dir/replay-stats.json"; exit 1; }
    "$(bin edm-probe)" --verify "$serve_dir/replay.jsonl" | grep -q "conformant" \
        || { echo "serve: replay journal violates the EDM spec"; exit 1; }

    # (2) Uninterrupted ingest run: the full stream through POST /ingest.
    # Its journal must also verify, and /plan must carry a real plan.
    "$(bin edm-serve)" "$serve_dir/live.scn" --mode ingest \
        --port-file "$serve_dir/a.port" --journal "$serve_dir/ingest.jsonl" \
        > /dev/null &
    local a_pid=$!
    serve_wait_port "$serve_dir/a.port"
    { cat "$serve_dir/ops.txt"; echo "end"; } > "$serve_dir/ops-end.txt"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-end.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" '"done":true' "the uninterrupted ingest run"
    serve_get "$SERVE_PORT" /healthz | grep -q '"ok":true' \
        || { echo "serve: daemon unhealthy after ingest"; exit 1; }
    serve_get "$SERVE_PORT" /plan > "$serve_dir/plan.json"
    grep -q '"plan_chosen"' "$serve_dir/plan.json" \
        || { echo "serve: /plan carries no chosen plan"; cat "$serve_dir/plan.json"; exit 1; }
    serve_get "$SERVE_PORT" /stats > "$serve_dir/stats-uninterrupted.json"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$a_pid"
    grep -q "\"applied_ops\":$total_ops" "$serve_dir/stats-uninterrupted.json" \
        || { echo "serve: ingest run did not apply all $total_ops ops"; exit 1; }
    "$(bin edm-probe)" --verify "$serve_dir/ingest.jsonl" | grep -q "conformant" \
        || { echo "serve: ingest journal violates the EDM spec"; exit 1; }

    # (3) Kill-and-resume: feed a third of the stream, cut a checkpoint,
    # kill -9 the daemon, resume from the snapshot, re-feed the ENTIRE
    # stream. Dedup skips the checkpointed prefix and /stats must
    # converge bit-identically on the uninterrupted run's, and so must
    # the journal trailers of what the world's stats and the devices'
    # wear counters own.
    local part
    part=$(( total_ops / 3 ))
    head -n "$part" "$serve_dir/ops.txt" > "$serve_dir/ops-part.txt"
    "$(bin edm-serve)" "$serve_dir/live.scn" --mode ingest \
        --port-file "$serve_dir/b.port" --checkpoint-dir "$serve_dir/ckpts" \
        > /dev/null &
    local b_pid=$!
    serve_wait_port "$serve_dir/b.port"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-part.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" "\"ingest_accepted\":$part,\"ingest_buffered\":0" \
        "the partial stream to drain"
    serve_post "$SERVE_PORT" /checkpoint > /dev/null
    serve_wait_health "$SERVE_PORT" '"checkpoints":1' "the checkpoint to be cut"
    kill -9 "$b_pid"
    wait "$b_pid" 2> /dev/null || true
    local snap
    snap="$(ls "$serve_dir"/ckpts/*.snap | tail -n1)"
    [ -n "$snap" ] || { echo "serve: no checkpoint survived the kill"; exit 1; }
    # An ingest checkpoint is the same container as a replay one: the
    # probe reads its manifest and embedded scenario, and edm-sim refuses
    # it (no engine section) with a one-line error and exit 1.
    local probe_live code err
    probe_live="$("$(bin edm-probe)" --snapshot "$snap")" \
        || { echo "serve: edm-probe --snapshot failed on the ingest checkpoint"; exit 1; }
    grep -q "^policy " <<< "$probe_live" && grep -q -- "-- embedded scenario --" <<< "$probe_live" \
        || { echo "serve: ingest checkpoint manifest incomplete"; echo "$probe_live"; exit 1; }
    code=0
    err="$("$(bin edm-sim)" --resume "$snap" 2>&1 > /dev/null)" || code=$?
    err="$(grep -v '^resuming ' <<< "$err" || true)"
    [ "$code" -eq 1 ] && [ "$(wc -l <<< "$err")" -eq 1 ] && grep -q "no 'engine' section" <<< "$err" \
        || { echo "serve: edm-sim --resume of an ingest checkpoint exited $code, want 1 and one line: $err"; exit 1; }
    "$(bin edm-serve)" --resume "$snap" --mode ingest \
        --port-file "$serve_dir/c.port" --journal "$serve_dir/resumed.jsonl" > /dev/null &
    local c_pid=$!
    serve_wait_port "$serve_dir/c.port"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-end.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" '"done":true' "the resumed ingest run"
    serve_get "$SERVE_PORT" /healthz | grep -q "\"skipped_ops\":$part" \
        || { echo "serve: resume dedup did not skip the checkpointed prefix"; \
             serve_get "$SERVE_PORT" /healthz; exit 1; }
    serve_get "$SERVE_PORT" /stats > "$serve_dir/stats-resumed.json"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$c_pid"
    diff "$serve_dir/stats-uninterrupted.json" "$serve_dir/stats-resumed.json" \
        || { echo "serve: killed-and-resumed /stats diverged from uninterrupted run"; exit 1; }
    local published='"name":"(serve\.ops_applied|sim\.(ticks|migration_evaluations|moved_objects|moved_bytes)|ftl\.(block_erases|gc_page_moves))"'
    grep -E "$published" "$serve_dir/ingest.jsonl" > "$serve_dir/ingest.published"
    grep -E "$published" "$serve_dir/resumed.jsonl" > "$serve_dir/resumed.published"
    [ "$(wc -l < "$serve_dir/ingest.published")" -eq 7 ] \
        || { echo "serve: want 7 published trailers, got:"; cat "$serve_dir/ingest.published"; exit 1; }
    diff "$serve_dir/ingest.published" "$serve_dir/resumed.published" \
        || { echo "serve: killed-and-resumed journal trailers diverged from uninterrupted run"; exit 1; }

    # (4) The same stream at `--obs-level metrics` into a `dir:` backend:
    # below `events` the journal keeps no events, yet the backend must
    # still apply every completed migration, without an error.
    "$(bin edm-serve)" "$serve_dir/live.scn" --mode ingest --obs-level metrics \
        --backend "dir:$serve_dir/backend" --port-file "$serve_dir/d.port" > /dev/null &
    local d_pid=$!
    serve_wait_port "$serve_dir/d.port"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-end.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" '"done":true' "the metrics-level ingest run"
    local health moved
    health="$(serve_get "$SERVE_PORT" /healthz)"
    moved="$(serve_get "$SERVE_PORT" /stats | grep -o '"moved_objects":[0-9]*' | grep -o '[0-9]*$')"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$d_pid"
    [ "${moved:-0}" -gt 0 ] && grep -q "\"backend_moves\":$moved," <<< "$health" \
        && grep -q '"backend_errors":0,' <<< "$health" \
        || { echo "serve: dir backend at metrics level missed moves (moved_objects=$moved): $health"; exit 1; }
    echo "serve: replay digest $batch_digest matches, journals conformant, kill/resume converges, metrics-level backend applied $moved moves OK"
}

step_fuzz() {
    if [ "$QUICK" = "1" ]; then
        echo "==> fuzz skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> edm-fuzz --seed 1 --runs 6 (oracle smoke)"
    # A fixed seed-1 batch through the full differential-oracle battery.
    # Nightly CI runs the long-budget variant.
    "$(bin edm-fuzz)" --seed 1 --runs 6
    echo "==> edm-fuzz --seed 11 --runs 400 (component-tagged queue events)"
    # A wider fixed batch (about 20 s on 2 vCPUs). Its draws include
    # component-affine runs whose requests queue from a scope other than
    # their OSD's (after a midpoint plan, or on an object CMT moved into
    # another component); edm-spec's queue model catches a mis-tagged
    # op_enqueue there.
    "$(bin edm-fuzz)" --seed 11 --runs 400
}

step_model() {
    if [ "$QUICK" = "1" ]; then
        echo "==> model skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> model-diff gate (edm-exp model-diff vs scripts/model_tolerances.json)"
    # Differential cross-validation of the analytic mean-field model
    # (edm-model) against the simulator over every fuzz-corpus scenario:
    # per-scenario KS distance, max relative erase error, and GC-rate
    # error must stay within the committed tolerances. It runs from a
    # scratch directory: the binary finds the corpus and the tolerances
    # in its own source tree, not in the working directory.
    scratch_dir
    local exp
    exp="$(realpath "$(bin edm-exp)")"
    (cd "$SCRATCH_DIR" && "$exp" model-diff)
}

step_record() {
    if [ "$QUICK" = "1" ]; then
        echo "==> record skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> edm-exp all --full --osds 16,20 vs experiments_full.txt"
    # The paper record is this command's stdout, byte for byte. A change
    # that moves any byte must re-paste the file (and the lines
    # EXPERIMENTS.md quotes from it); this step catches one that did not.
    scratch_dir
    "$(bin edm-exp)" all --full --osds 16,20 > "$SCRATCH_DIR/record.txt"
    if ! cmp -s "$SCRATCH_DIR/record.txt" experiments_full.txt; then
        diff experiments_full.txt "$SCRATCH_DIR/record.txt" | head -40
        echo "record: edm-exp all --full --osds 16,20 differs from experiments_full.txt"
        exit 1
    fi
    echo "record: edm-exp all --full --osds 16,20 matches experiments_full.txt"
}

step_tsan() {
    if [ "$QUICK" = "1" ]; then
        echo "==> tsan skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> tsan (nightly -Zsanitizer=thread over edm-cluster + edm-serve tests)"
    # ThreadSanitizer instruments std itself, so it needs a nightly
    # toolchain with the rust-src component (-Zbuild-std). The lane is
    # advisory and environment-gated: machines without that toolchain
    # skip cleanly instead of failing the gate. What blocks a
    # concurrency bug is rustc's Send/Sync bounds, the `#[expect]` with
    # a reason that clippy.toml demands on every spawn and lock site, and
    # the serve/state.rs hand-off tests; this lane catches the dynamic
    # races those can't see.
    if ! command -v rustup > /dev/null 2>&1; then
        echo "tsan: rustup not available, skipping"
        return 0
    fi
    if ! rustup toolchain list 2> /dev/null | grep -q '^nightly'; then
        echo "tsan: no nightly toolchain installed, skipping"
        return 0
    fi
    if ! rustup component list --toolchain nightly --installed 2> /dev/null \
        | grep -q '^rust-src'; then
        echo "tsan: nightly rust-src missing (needed for -Zbuild-std), skipping"
        return 0
    fi
    local host
    host="$(rustc -vV | sed -n 's/^host: //p')"
    # Only the crates with real thread concurrency: the group-sharded
    # engine (scoped-thread shard execution) and the serve daemon (server
    # thread + session thread meeting at the Ctrl hand-off) — its unit
    # tests, then the loopback suite that drives both threads for real.
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q -Zbuild-std --target "$host" \
        -p edm-cluster -p edm-serve
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q -Zbuild-std --target "$host" \
        -p edm-harness --test serve_daemon
    echo "tsan: shard + serve test suites clean under ThreadSanitizer"
}

run_step() {
    case "$1" in
        fmt)   step_fmt ;;
        lint)  step_lint ;;
        build) step_build ;;
        test)  step_test ;;
        smoke) step_smoke ;;
        scale) step_scale ;;
        spec)  step_spec ;;
        serve) step_serve ;;
        fuzz)  step_fuzz ;;
        model) step_model ;;
        record) step_record ;;
        tsan)  step_tsan ;;
        all)
            for s in $STEPS; do
                run_step "$s"
            done
            ;;
        *)
            echo "check.sh: unknown step '$1' (steps: $STEPS all)" >&2
            exit 2
            ;;
    esac
}

for step in "${@:-all}"; do
    run_step "$step"
done
echo "check.sh: '${*:-all}' passed."
