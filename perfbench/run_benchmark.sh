#!/usr/bin/env bash
# Run every workload of BENCHMARK.json untraced, then traced (one process
# each), and merge the printed metrics into one JSON document with the
# commit hash, `nproc`, CPU model and seed.
#
#   perfbench/run_benchmark.sh [--seed N] [--out FILE] [--traces DIR]
#
# Run from the repository root.  Nothing is written if any oracle failed or
# the gateway run ended with a backlog: the latency figures of such a run are
# void.  `--traces DIR` also keeps each traced run's spans as
# DIR/<workload>.json.  `BENCHMARK.json` itself is the driver's contract
# file and holds no numbers; the readings recorded with this script are in
# `perfbench/README.md`.
set -euo pipefail

seed=1
out=""
traces=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --traces) traces="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--out FILE] [--traces DIR]" >&2; exit 2 ;;
  esac
done

[ -f BENCHMARK.json ] || { echo "run from the repository root" >&2; exit 2; }
tmp="$(mktemp -d "${TMPDIR:-/tmp}/perfbench.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
[ -z "$traces" ] || mkdir -p "$traces"

# More requests outstanding than this at the end of an open-loop window
# (0.3 s of arrivals) means the gateway was not keeping up with 100/s.
backlog_cap=32

mapfile -t command < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
mapfile -t workloads < <(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]], sep="\n")')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

failed=0
for trace in 0 1; do
  for workload in "${workloads[@]}"; do
    extra=()
    if [ "$trace" = 1 ] && [ -n "$traces" ]; then
      extra=(--trace-out "$traces/$workload.json")
    fi
    echo "== $workload --trace $trace" >&2
    if ! "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" "${extra[@]}" | tee /dev/stderr | tail -n 1 >"$tmp/$workload.$trace.json"; then
      echo "$workload --trace $trace: an oracle failed" >&2
      failed=1
    fi
  done
done
[ "$failed" = 0 ] || { echo "refusing to write results: an oracle failed" >&2; exit 1; }

python3 - "$tmp" "$seed" "$backlog_cap" "$out" "${workloads[@]}" <<'EOF'
import json, os, subprocess, sys

tmp, seed, backlog_cap, out, *workloads = sys.argv[1:]

def sh(*cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True).stdout.strip()
    except OSError:
        return ""

cpu = ""
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break

doc = {
    "commit": sh("git", "rev-parse", "HEAD") or "unknown",
    "nproc": os.cpu_count(),
    "cpu": cpu,
    "seed": int(seed),
    "workloads": {},
}
for w in workloads:
    runs = {}
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        with open(os.path.join(tmp, f"{w}.{trace}.json")) as f:
            result = json.load(f)
        if not result["correct"] or result["failed"]:
            sys.exit(f"refusing to write results: {w} --trace {trace} failed its oracle")
        runs[key] = {name: m["value"] for name, m in result["metrics"].items()}
        runs[f"{key}_attempted"] = result["attempted"]
    if w == "gateway_paced" and runs["per_layer"]["gateway.backlog_end"] >= int(backlog_cap):
        sys.exit(f"refusing to write results: {w} ended with a backlog of "
                 f"{runs['per_layer']['gateway.backlog_end']:.0f} requests")
    doc["workloads"][w] = runs

text = json.dumps(doc, indent=1) + "\n"
if out:
    with open(out, "w") as f:
        f.write(text)
    print(f"wrote {out}", file=sys.stderr)
else:
    sys.stdout.write(text)
EOF
