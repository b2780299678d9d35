#!/usr/bin/env bash
# Flat CPU profile of one benchmark workload, per thread.
#
#   scripts/profile.sh WORKLOAD [SECONDS]
#
# Builds the benchmark package as benchmark/run.sh does (into
# $CARGO_TARGET_DIR or benchmark/target), compiles a small LD_PRELOAD
# sampler with gcc into a temp dir, and runs
# `edm-benchmark --workload WORKLOAD --seconds SECONDS --trace 0` under it
# (SECONDS defaults to 15). The sampler arms ITIMER_PROF at 500 µs and
# records each SIGPROF's PC and thread id; the kernel fires it at its own
# tick (≈ 4 ms on a 250 Hz kernel), so short runs give few samples.
#
# Output: the run's result object (its last stdout line), then tables for
# the main thread, for all other threads together ("all-but-main"), and
# for each other thread, most samples first (serve_ingest starts one
# daemon session thread a pass):
#   self       share of that thread's samples whose innermost frame is the
#              function (inlined frames resolved with addr2line -i);
#              a PC outside the executable is charged to its library,
#              e.g. [libm.so.6];
#   inclusive  share of samples with the function anywhere in the PC's
#              inline chain (one flat PC: callers that were not inlined
#              into it are not seen).
# Each table shows its top 20 lines.
#
# Run it from anywhere; it writes nothing into the tree but the build.
set -euo pipefail
if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 WORKLOAD [SECONDS]" >&2
    exit 2
fi
workload="$1"
seconds="${2:-15}"
top=20
here="$(cd "$(dirname "$0")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$here/benchmark/target}"
bin="$target/release/edm-benchmark"

cargo build --release --offline --locked --manifest-path "$here/benchmark/Cargo.toml" >&2

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cat >"$tmp/prof.c" <<'EOF'
#define _GNU_SOURCE
#include <limits.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1 << 20)
#define MAPS 4096

static unsigned long pcs[CAP];
static int tids[CAP];
static long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAP) {
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
        tids[i] = (int)syscall(SYS_gettid);
    }
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &every, NULL);
}

static struct {
    unsigned long lo, hi, off;
    int exe;
    char name[64];
} maps[MAPS];

/* One line per sample, "<thread> <where>": the thread is "main" or its
   tid; where is the PC's link-time address (for addr2line) when it lies
   in the executable, else [the basename of its mapping]. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out = getenv("PROF_OUT");
    const char *bias_hex = getenv("PROF_BIAS");
    if (!out || !bias_hex)
        return;
    unsigned long bias = strtoul(bias_hex, NULL, 16);
    char exe[PATH_MAX];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len < 0 ? 0 : len] = 0;
    int n_maps = 0;
    char line[PATH_MAX + 256];
    FILE *m = fopen("/proc/self/maps", "r");
    while (m && n_maps < MAPS && fgets(line, sizeof line, m)) {
        unsigned long lo, hi, o;
        char perms[8], path[PATH_MAX] = "";
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %s", &lo, &hi, perms, &o, path) < 4 ||
            perms[2] != 'x')
            continue;
        const char *base = strrchr(path, '/');
        maps[n_maps].lo = lo;
        maps[n_maps].hi = hi;
        maps[n_maps].off = o;
        maps[n_maps].exe = strcmp(path, exe) == 0;
        snprintf(maps[n_maps].name, sizeof maps[n_maps].name, "%s",
                 base ? base + 1 : (path[0] ? path : "anon"));
        n_maps++;
    }
    if (m)
        fclose(m);
    FILE *f = fopen(out, "w");
    if (!f)
        return;
    int pid = getpid();
    long n = taken < CAP ? taken : CAP;
    for (long i = 0; i < n; i++) {
        char who[16];
        if (tids[i] == pid)
            snprintf(who, sizeof who, "main");
        else
            snprintf(who, sizeof who, "%d", tids[i]);
        int k = 0;
        while (k < n_maps && !(maps[k].lo <= pcs[i] && pcs[i] < maps[k].hi))
            k++;
        if (k == n_maps)
            fprintf(f, "%s [unmapped]\n", who);
        else if (maps[k].exe)
            fprintf(f, "%s 0x%lx\n", who, pcs[i] - maps[k].lo + maps[k].off + bias);
        else
            fprintf(f, "%s [%s]\n", who, maps[k].name);
    }
    fclose(f);
}
EOF
gcc -O2 -shared -fPIC -o "$tmp/prof.so" "$tmp/prof.c"

# A PC at file offset o of the executable segment has link-time address
# o + (vaddr − offset) of that LOAD segment.
read -r seg_off seg_vaddr < <(readelf -lW "$bin" | awk '$1 == "LOAD" && / R E / { print $2, $3; exit }')
bias="$(printf '%x' $((seg_vaddr - seg_off)))"

mkdir "$tmp/out"
PROF_OUT="$tmp/samples" PROF_BIAS="$bias" LD_PRELOAD="$tmp/prof.so" \
    "$bin" --out-dir "$tmp/out" --workload "$workload" --seconds "$seconds" --trace 0 >"$tmp/run.log"
tail -n 1 "$tmp/run.log"

# Inline chains: addr2line -a echoes each address, then one function and
# one file:line per frame, innermost first.
awk '$2 ~ /^0x/ { print $2 }' "$tmp/samples" | sort -u >"$tmp/addrs"
addr2line -f -C -i -a -e "$bin" <"$tmp/addrs" >"$tmp/frames"

awk '
    FILENAME == ARGV[1] { addr[++n_addr] = $0; next }
    FILENAME == ARGV[2] {
        if ($0 ~ /^0x[0-9a-f]+$/) { cur = addr[++k]; frame = 0; next }
        if (frame++ % 2 == 1) next
        chain[cur] = frame == 1 ? $0 : chain[cur] "\t" $0
        next
    }
    {
        count($1)
        if ($1 != "main") count("all-but-main")
    }
    function count(who,    n, f, i, seen) {
        total[who]++
        if (!($2 in chain)) { self[who SUBSEP $2]++; incl[who SUBSEP $2]++; return }
        n = split(chain[$2], f, "\t")
        self[who SUBSEP f[1]]++
        for (i = 1; i <= n; i++) if (!(f[i] in seen)) { seen[f[i]] = 1; incl[who SUBSEP f[i]]++ }
    }
    END {
        for (key in self) { split(key, p, SUBSEP); emit(p[1], "self", self[key], p[2]) }
        for (key in incl) { split(key, p, SUBSEP); emit(p[1], "inclusive", incl[key], p[2]) }
    }
    function emit(who, kind, n, name) {
        printf "%d\t%d\t%s\t%s\t%d\t%s\n", rank(who), total[who], who, kind, n, name
    }
    function rank(who) { return who == "main" ? 0 : who == "all-but-main" ? 1 : 2 }
' "$tmp/addrs" "$tmp/frames" "$tmp/samples" |
    sort -t $'\t' -k1,1n -k2,2nr -k3,3 -k4,4r -k5,5nr |
    awk -F '\t' -v top="$top" '
        $3 != who { who = $3; kind = ""; printf "\n== thread %s: %d samples\n", who, $2 }
        $4 != kind { kind = $4; shown = 0; printf "  %s\n", kind }
        shown++ < top { printf "  %6.1f%%  %s\n", 100 * $5 / $2, $6 }
    '
