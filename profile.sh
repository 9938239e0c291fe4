#!/usr/bin/env bash
# Where one benchmark workload spends its CPU: a SIGPROF sampler preloaded
# into `vod-benchmark run`, one program-counter sample per millisecond of
# CPU time (or per kernel tick, if that is coarser), each sample symbolized
# with its inline chain.
#
#   ./profile.sh <workload> [seconds=5]
#
# Needs the system `cc` and `llvm-symbolizer`; the sampler is compiled into
# a temp dir, and nothing is written under the repo but the benchmark's own
# build. Prints two tables over all samples of the run (setup included):
# *leaf* — the innermost function at the sampled PC, inlined or not — and
# *inlined frames* — every function on the PC's inline chain, counted once
# per sample, so a caller the optimiser flattened its callees into reads
# the share of all of them. Samples outside the benchmark binary (libm,
# libc) are symbolized against their own library.
set -euo pipefail
cd "$(dirname "$0")"

if [ $# -lt 1 ]; then
  awk 'NR > 1 && !/^#/ { exit } NR > 1' "$0" >&2
  exit 2
fi
workload="$1" seconds="${2:-5}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cat >"$tmp/sampler.c" <<'C'
/* Records the interrupted PC on every SIGPROF (1 ms of process CPU time)
 * and, at exit, writes /proc/self/maps and the PCs to $PROFILE_OUT.<pid>. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  unsigned long n = taken;
  if (n < MAX_SAMPLES) {
    pcs[n] = (unsigned long)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    taken = n + 1;
  }
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *base = getenv("PROFILE_OUT");
  char path[4096], line[4096];
  if (!base || !taken) return;
  snprintf(path, sizeof path, "%s.%d", base, (int)getpid());
  FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
  if (!out) return;
  while (maps && fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
  if (maps) fclose(maps);
  for (unsigned long i = 0; i < taken; i++) fprintf(out, "pc %lx\n", pcs[i]);
  fclose(out);
}
C
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
PROFILE_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
  benchmark/target/release/vod-benchmark run --workload "$workload" --seconds "$seconds" --trace 0 >/dev/null

# The benchmark shells out for its provenance (uname, rustc, git): the run
# itself is the process with the most samples.
run="$(grep -c -H '^pc ' "$tmp"/samples.* | sort -t: -k2 -n | tail -n 1 | cut -d: -f1)"

# Each PC becomes (library, address within it): the load bias of a file is
# the start of its mapping at offset 0. One line per distinct address:
# "count<TAB>path<TAB>address", addresses in decimal.
awk '
  function hex(s,    n, i) { n = 0; s = tolower(s)
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n }
  $1 == "map" { split($2, r, "-"); m++; lo[m] = hex(r[1]); hi[m] = hex(r[2]); path[m] = $7
    if ($4 == "00000000" && !($7 in bias)) bias[$7] = lo[m]; next }
  $1 == "pc" { pc = hex($2); where = "[unmapped]"; at = pc
    for (i = 1; i <= m; i++) if (pc >= lo[i] && pc < hi[i]) { where = path[i]; at = pc - bias[where]; break }
    if (where == "" || substr(where, 1, 1) == "[") { where = "[anon]"; at = 0 }
    count[where "\t" sprintf("%.0f", at)]++ }
  END { for (k in count) print count[k] "\t" k }
' "$run" | sort -t "$(printf '\t')" -k2,2 -k3,3n >"$tmp/addrs"

# Symbolize per file; each address yields its frames innermost first, then
# a blank line. Emit "count<TAB>frame<TAB>frame…" per address.
cut -f2 "$tmp/addrs" | sort -u | while IFS= read -r obj; do
  awk -F '\t' -v obj="$obj" '$2 == obj' "$tmp/addrs" >"$tmp/one"
  if [ "$obj" = "[anon]" ] || [ ! -r "$obj" ]; then
    awk -F '\t' -v obj="[${obj##*/}]" '{ print $1 "\t" obj }' "$tmp/one"
    continue
  fi
  cut -f3 "$tmp/one" | llvm-symbolizer --inlining --obj="$obj" |
    awk -F '\t' -v lib="[${obj##*/}]" -v counts="$tmp/one" '
      NR % 2 == 1 && $0 != "" {
        if ($0 == "??") $0 = lib
        # The LLVM local-symbol and hash suffixes, then legacy Rust escapes.
        sub(/ \(\.llvm\.[0-9]+\)$/, ""); sub(/::h[0-9a-f]+$/, "")
        gsub(/\$LT\$/, "<"); gsub(/\$GT\$/, ">"); gsub(/\$u20\$/, " ")
        gsub(/\$RF\$/, "\\&"); gsub(/\$C\$/, ","); gsub(/\.\./, "::"); sub(/^_</, "<")
        chain = chain "\t" $0 }
      $0 == "" { getline c < counts; split(c, f, "\t"); print f[1] chain; chain = ""; NR = 0 }'
done >"$tmp/chains"

echo "== $workload, ${seconds}s: $(awk '{ n += $1 } END { print n }' "$tmp/chains") samples (SIGPROF per 1 ms of CPU time, or per kernel tick if coarser) =="
awk -F '\t' '
  { total += $1; leaf[$2] += $1; delete seen
    for (i = 2; i <= NF; i++) if (!($i in seen)) { seen[$i] = 1; incl[$i] += $1 } }
  END {
    for (f in leaf) printf "leaf\t%6.2f%%\t%s\n", 100 * leaf[f] / total, f
    for (f in incl) printf "inlined\t%6.2f%%\t%s\n", 100 * incl[f] / total, f }
' "$tmp/chains" | sort -t "$(printf '\t')" -k1,1r -k2,2nr |
  awk -F '\t' '$1 != last { print "-- " $1 " --"; last = $1; n = 0 } ++n <= 25 { print "  " $2 "  " $3 }'
