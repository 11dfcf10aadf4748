#!/usr/bin/env bash
# Fleet drill: two models served to three tenants under chaos, one tenant
# throttled by a tiny quota and put at the bottom of the priority ladder.
# Every verified response must be byte-identical to the offline predictor
# (0 wrong answers), at least one request must be shed, and the fleet
# metrics must validate. A second round serves one model through the
# replica router (`svm_tool serve --devices 2`) and requires every request
# answered with both replicas reporting.
#
# Usage: tools/ci/fleet_smoke.sh BUILD_DIR WORK_DIR
#   BUILD_DIR holds examples/svm_tool and tools/check_metrics; WORK_DIR
#   receives the models, config, logs and metrics (created if missing).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
svm_tool="$1/examples/svm_tool"
check_metrics="$1/tools/check_metrics"
work="$2"
mkdir -p "$work"

# Train tenant models.
cat > "$work/a.libsvm" <<'DATA'
0 1:0.9 3:0.2
0 1:1.1 2:0.1
0 1:0.8 4:0.3
0 1:1.0 2:0.2 4:0.1
1 2:1.0 3:0.4
1 2:0.9 4:0.2
1 2:1.2
1 1:0.1 2:1.1 3:0.1
2 3:1.0 4:0.5
2 1:0.2 3:0.8
2 3:1.1 4:0.1
2 2:0.1 3:0.9
DATA
"$svm_tool" train -c 4 -g 0.5 "$work/a.libsvm" "$work/a.model"
"$svm_tool" train -c 1 -g 0.8 "$work/a.libsvm" "$work/b.model"

# Fleet serve under chaos (verified).
cat > "$work/fleet.cfg" <<CONFIG
replicas 2
min_replicas 1
max_replicas 4
scale_up_depth 4
scale_up_ticks 2
shed_start 0.5
# acme and beta share model a's support vectors; trickle gets a
# quota small enough to guarantee quota shedding and the lowest
# priority so the overload ladder drops it first.
tenant acme    model=$work/a.model priority=2 weight=8
tenant beta    model=$work/a.model priority=1 weight=3
tenant trickle model=$work/b.model priority=0 rate=25 burst=2 weight=4
CONFIG
set +e
"$svm_tool" serve --fleet-config "$work/fleet.cfg" \
  -n 400 -w 2 -b 8 --verify --chaos-seed 13 \
  --metrics-out "$work/fleet.prom" | tee "$work/serve.log"
rc=${PIPESTATUS[0]}
set -e
# 0 = all answered OK; 3 = some chaos-terminal failures — both mean
# no admitted request was dropped and no wrong answer was served.
test "$rc" -eq 0 -o "$rc" -eq 3
# Byte-exact against the offline predictor, for every response.
grep -q ", 0 wrong answers" "$work/serve.log"
# The quota/priority ladder actually shed load.
shed=$(sed -n 's/^fleet shed total: \([0-9]*\).*/\1/p' "$work/serve.log")
test -n "$shed" -a "$shed" -gt 0

# Validate fleet metrics.
"$check_metrics" "$work/fleet.prom" \
  gmpsvm_fleet_submitted_total gmpsvm_fleet_admitted_total \
  gmpsvm_fleet_completed_total gmpsvm_fleet_shed_quota_total \
  gmpsvm_fleet_latency_seconds gmpsvm_fleet_replicas \
  gmpsvm_fleet_sv_hits_total gmpsvm_fault_injected_total

# Router round: one model on two replicas.
"$svm_tool" serve --devices 2 -n 64 "$work/a.model" | tee "$work/router.log"
grep -q "^answered 64/64 requests" "$work/router.log"
test "$(grep -c '^replica [0-9]*:' "$work/router.log")" -eq 2

echo "fleet smoke OK"
