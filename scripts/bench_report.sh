#!/usr/bin/env bash
# Runs the perf-gating benches (batch + serve) and assembles a
# machine-readable report, one labelled run per invocation:
#
#   scripts/bench_report.sh --label before --out BENCH_<n>.json  # smoke + default
#   scripts/bench_report.sh --label after --out BENCH_<n>.json
#   scripts/bench_report.sh --label ci --scales smoke --out /tmp/ci.json
#
# The metrics-overhead comparison prices the rms-metrics instrumentation
# by running the same benches with the registry in its disabled (no-op
# instruments) mode:
#
#   scripts/bench_report.sh --label instrumented --out BENCH_<n>.json
#   scripts/bench_report.sh --label registry_disabled --metrics-disabled --out BENCH_<n>.json
#
# The report file is JSON of the shape
#   { "<label>": { "scales": { "<scale>": { "batch": {...}, "serve": {...} } } } }
# and an existing report is merged into, not clobbered — running with
# two labels yields the comparison document perf PRs check in as
# BENCH_<n>.json (BENCH_8.json pairs instrumented/registry_disabled;
# BENCH_10.json pairs before/after the evented network subsystem, whose
# serve run adds the `fanout` phase — encode-once delta fan-out under a
# subscriber swarm).
set -euo pipefail

cd "$(dirname "$0")/.."

label="run"
out=""
scales="smoke,default"
metrics_disabled=""
while [ $# -gt 0 ]; do
    case "$1" in
        --label) label="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --scales) scales="$2"; shift 2 ;;
        --metrics-disabled) metrics_disabled=1; shift ;;
        -h|--help)
            sed -n '2,19p' "$0"; exit 0 ;;
        *) echo "bench_report.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$out" ]; then
    # The report name carries the change it documents (BENCH_<n>.json).
    echo "bench_report.sh: --out is required" >&2
    exit 2
fi

if [ -n "$metrics_disabled" ]; then
    # rms-metrics registries constructed via Registry::from_env become
    # no-ops: registration still validates, every record is one branch.
    export KRMS_METRICS_DISABLED=1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

cargo build --release -p rms-bench --bins >&2

run_scale() {
    scale="$1"
    batch_json="$workdir/batch_$scale.json"
    serve_json="$workdir/serve_$scale.json"
    case "$scale" in
        smoke)
            # Sub-minute configuration: proves the report format and gives a
            # quick relative signal. Serve uses its built-in smoke profile.
            ./target/release/batch --n 400 --ops 200 --r 10 --max-m 256 \
                --json "$batch_json" >&2
            KRMS_BENCH_SMOKE=1 ./target/release/serve --json "$serve_json" >&2
            ;;
        default)
            # The bench binaries' default scale: the numbers PRs gate on.
            ./target/release/batch --json "$batch_json" >&2
            ./target/release/serve --json "$serve_json" >&2
            ;;
        *)
            echo "bench_report.sh: unknown scale $scale (smoke|default)" >&2
            exit 2
            ;;
    esac
    printf '{"batch":%s,"serve":%s}' "$(cat "$batch_json")" "$(cat "$serve_json")"
}

IFS=',' read -r -a scale_list <<< "$scales"
scales_json="{"
first=1
for scale in "${scale_list[@]}"; do
    echo "=== bench_report: scale=$scale ===" >&2
    fragment="$(run_scale "$scale")"
    [ "$first" = 1 ] || scales_json="$scales_json,"
    scales_json="$scales_json\"$scale\":$fragment"
    first=0
done
scales_json="$scales_json}"
run_json="{\"scales\":$scales_json}"

# Merge into the existing report (or create it) under the label key.
merged="$workdir/merged.json"
if command -v jq >/dev/null 2>&1; then
    base="{}"
    [ -s "$out" ] && base="$(cat "$out")"
    printf '%s' "$base" | jq --arg lbl "$label" --argjson run "$run_json" \
        '.[$lbl] = $run' > "$merged"
elif command -v python3 >/dev/null 2>&1; then
    RUN_JSON="$run_json" OUT="$out" LABEL="$label" python3 - > "$merged" <<'EOF'
import json, os
out, label = os.environ["OUT"], os.environ["LABEL"]
doc = {}
if os.path.exists(out) and os.path.getsize(out) > 0:
    with open(out) as f:
        doc = json.load(f)
doc[label] = json.loads(os.environ["RUN_JSON"])
print(json.dumps(doc, indent=2))
EOF
else
    echo "bench_report.sh: need jq or python3 to merge reports" >&2
    exit 2
fi
mv "$merged" "$out"
echo "bench_report: wrote label '$label' to $out" >&2
