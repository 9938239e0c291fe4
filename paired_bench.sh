#!/usr/bin/env bash
# Paired A/B of one benchmark workload: the working tree against a parent
# commit, alternating which side runs first (EXPERIMENTS.md "Run-to-run
# spread" says why single runs on this container mean nothing).
#
#   ./paired_bench.sh <parent-ref> <workload> [pairs=10] [seconds=20] [seed=42]
#
# The parent is unpacked with `git archive` into a temp dir and built
# there, so neither this tree nor `.git` is touched; both binaries are
# copied aside before the first run. Prints work_per_s per pair with the
# change/parent ratio, the pairs the change won and each run's CPU
# seconds (user + sys: a threaded gain spends a second core); each
# side's median and quartiles of work_per_s, cpu_s, setup_s and
# peak_rss_mib, and beside the last the repetition count (the harness
# keeps every repetition's segments, so an RSS move that follows the
# count is that storage, not a leak) and a line fitted through every
# run's (reps, peak_rss_mib) that reads that storage in KiB per
# repetition; per segment, each side's median and quartiles of its
# rate and the pairs the change won (read from each run's --out
# document: a backend-specific change shows on its segment, which the
# end-to-end number averages away); each end-to-end metric's
# change/parent median ratio next to its BENCHMARK.json bound; and
# whether the three exact metrics (hit_ratio, served_share,
# provisioned_cost) read the same on every run of both — where they do
# not, each side's distinct values and the largest relative gap.
set -euo pipefail
cd "$(dirname "$0")"

if [ $# -lt 2 ]; then
  awk 'NR > 1 && !/^#/ { exit } NR > 1' "$0" >&2
  exit 2
fi
parent="$1" workload="$2" pairs="${3:-10}" seconds="${4:-20}" seed="${5:-42}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"
echo "== building $parent and the working tree ==" >&2
(cd "$tmp/parent" && cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cp "$tmp/parent/benchmark/target/release/vod-benchmark" "$tmp/bench-parent"
cp benchmark/target/release/vod-benchmark "$tmp/bench-change"

# One run; the last stdout line is the one-line JSON summary, its user
# and system CPU seconds go to the side's .cpu file (the run's own stderr
# stays on the terminal through fd 3), and its full document to
# side.pair.json.
run() { # side dir pair
  local TIMEFORMAT='%U %S'
  { time (cd "$2" && "$tmp/bench-$1" run --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 --out "$tmp/$1.$3.json" 2>&3 | tail -n 1) \
    >>"$tmp/$1.jsonl"; } 3>&2 2>>"$tmp/$1.cpu"
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run parent "$tmp/parent" "$i" && run change "$PWD" "$i"
  else
    run change "$PWD" "$i" && run parent "$tmp/parent" "$i"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

metric() { # side name -> one value per run; cpu_s is user + sys
  if [ "$2" = cpu_s ]; then
    awk '{ print $1 + $2 }' "$tmp/$1.cpu"
  else
    sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$tmp/$1.jsonl"
  fi
}
echo "== $workload, seed $seed, $pairs alternating pairs of --seconds $seconds: work_per_s, cpu_s =="
paste <(metric parent work_per_s) <(metric change work_per_s) \
  <(metric parent cpu_s) <(metric change cpu_s) | awk '
  { printf "pair %2d   parent %10.0f   change %10.0f   ratio %.3f   cpu_s parent %6.2f   change %6.2f\n",
      NR, $1, $2, $2 / $1, $3, $4
    if ($2 > $1) wins++; else if ($2 == $1) ties++ }
  END { printf "change won %d of %d pairs (%d ties)\n", wins, NR, ties }'
# Median and quartiles of one value per line (linear interpolation
# between order statistics).
summary() { # label
  sort -g | awk -v what="$1" '
    function quantile(q,    h, lo) { h = (NR - 1) * q; lo = int(h); return v[lo + 1] + (h - lo) * (v[lo + 2 > NR ? NR : lo + 2] - v[lo + 1]) }
    { v[NR] = $1 }
    END { printf "%-22s median %12.6g   q1 %12.6g   q3 %12.6g   (q3-q1)/median %.3f\n", what,
            quantile(0.5), quantile(0.25), quantile(0.75), (quantile(0.75) - quantile(0.25)) / quantile(0.5) }'
}
median() { summary x | awk '{ print $3 }'; }
for name in work_per_s cpu_s setup_s peak_rss_mib; do
  for side in parent change; do
    metric "$side" "$name" | summary "$name $side"
  done
done
# Each run's repetition count: workloads.<w>.reps of its --out document.
reps() { # side
  for ((i = 0; i < pairs; i++)); do
    sed -n 's/^ *"reps": \([0-9]*\),*$/\1/p' "$tmp/$1.$i.json"
  done
}
for side in parent change; do
  reps "$side" | summary "reps $side"
done
# peak_rss_mib against the repetition count, one least-squares line
# through every run of both sides: the slope is what the harness keeps
# per repetition. The change's median RSS moved along that line to the
# parent's median count is what it would read at the parent's speed; a
# value near the parent's median means an RSS move is that storage.
parent_reps="$(reps parent | median)"
change_reps="$(reps change | median)"
change_rss="$(metric change peak_rss_mib | median)"
parent_rss="$(metric parent peak_rss_mib | median)"
paste <( (reps parent; reps change)) <( (metric parent peak_rss_mib; metric change peak_rss_mib)) | awk \
  -v pr="$parent_reps" -v cr="$change_reps" -v crss="$change_rss" -v prss="$parent_rss" '
  { n++; sx += $1; sy += $2; sxy += $1 * $2; sxx += $1 * $1 }
  END {
    d = n * sxx - sx * sx
    if (d == 0) { print "peak_rss_mib vs reps: every run has the same count (no fit)"; exit }
    slope = (n * sxy - sx * sy) / d; icept = (sy - slope * sx) / n
    printf "peak_rss_mib vs reps   slope %.4f KiB/rep   intercept %.4f MiB   (%d runs)\n", slope * 1024, icept, n
    printf "peak_rss_mib change at the parent median reps %.0f: predicted %.4f MiB   measured median %.4f MiB at %.0f reps   parent median %.4f MiB\n",
      pr, crss - slope * (cr - pr), crss, cr, prss }'
# Each segment's rate per run, pair order: the "rate" inside the
# document's "segments" object, under the segment's name.
segment_rates() { # side segment
  for ((i = 0; i < pairs; i++)); do
    awk -v want="$2" '
      /"segments": \{/ { on = 1; next }
      on && /^ *"[^"]+": \{$/ { name = $1; gsub(/[":]/, "", name); next }
      on && name == want && /"rate": / { v = $2; sub(/,$/, "", v); print v }' "$tmp/$1.$i.json"
  done
}
echo "== segment rates (work per wall-second of the segment) =="
for segment in $(awk '/"segments": \{/ { on = 1; next } on && /^ *"[^"]+": \{$/ { gsub(/[ ":{]/, ""); print }' "$tmp/parent.0.json"); do
  for side in parent change; do
    segment_rates "$side" "$segment" | summary "$segment $side"
  done
  paste <(segment_rates parent "$segment") <(segment_rates change "$segment") | awk -v what="$segment" '
    { if ($2 > $1) wins++; else if ($2 == $1) ties++ }
    END { printf "%-22s change won %d of %d pairs (%d ties)\n", what, wins, NR, ties }'
done
# Each end-to-end metric against its BENCHMARK.json bound: the change's
# median over the parent's, and how much worse that is in the metric's
# own direction (a negative share is a gain).
echo "== end-to-end medians against the BENCHMARK.json bounds =="
sed -n 's/.*{"name": "\([a-z_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' \
  BENCHMARK.json | while read -r name better bound; do
  [ -n "$(metric parent "$name")" ] || continue
  parent_median="$(metric parent "$name" | median)"
  change_median="$(metric change "$name" | median)"
  awk -v name="$name" -v better="$better" -v bound="$bound" -v p="$parent_median" -v c="$change_median" 'BEGIN {
    if (p == 0) { printf "%-18s parent 0   change %g   (no ratio)\n", name, c; exit }
    ratio = c / p
    worse = better == "lower" ? ratio - 1 : 1 - ratio
    printf "%-18s parent %12.6g   change %12.6g   change/parent %.4f   worse by %+.4f   bound %.3f (%s is better)   %s\n",
      name, p, c, ratio, worse, bound, better, (worse > bound ? "OUTSIDE" : "inside") }'
done
# The exact metrics: equal on every run of both sides, or each side's
# distinct values and the largest relative gap (smallest to largest).
for name in hit_ratio served_share provisioned_cost; do
  values="$( (metric parent "$name"; metric change "$name") | sort -u | tr '\n' ' ')"
  if [ "$(wc -w <<<"$values")" -eq 1 ]; then
    echo "$name: $values— equal on all $((2 * pairs)) runs"
  else
    echo "$name: differs across runs"
    for side in parent change; do
      echo "  $side: $(metric "$side" "$name" | sort -u | tr '\n' ' ')"
    done
    (metric parent "$name"; metric change "$name") | sort -g | awk 'NR == 1 { lo = $1 } { hi = $1 }
      END { printf "  largest relative gap %.3g\n", (hi - lo) / (hi > -lo ? hi : -lo) }'
  fi
done
for side in parent change; do
  echo "$side: $(grep -c '"correct":true' "$tmp/$side.jsonl") of $pairs runs correct, failed operations: $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$tmp/$side.jsonl" | sort -u | tr '\n' ' ')"
done
