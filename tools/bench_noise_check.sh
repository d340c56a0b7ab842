#!/usr/bin/env bash
# Noise-band drill for compare_bench.py: a value whose baseline was pooled
# over separate runs (tools/pool_bench_runs.py) is gated within its recorded
# run-to-run spread, not the plain --threshold.
#   1. a wobble inside a pooled value's run spread must pass (exit 0);
#   2. a 2x slowdown, or a halved speedup, must still fail (exit 1);
#   3. a value without a run spread keeps the plain threshold, so the same
#      wobble there must fail;
#   4. every gated value of the committed fig4/fig6 baselines must flag
#      against a copy made 2x worse (2x the times, half the speedups): no
#      recorded run spread is so wide that it hides a 2x regression.
#
# Usage: bench_noise_check.sh <compare_bench.py> <baselines dir>
set -euo pipefail

COMPARE=$1
BASELINES=$2
TOOLS=$(dirname "${COMPARE}")
WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

# Three runs of a fixture bench, pooled: conv1@2T's p50 reads 100/110/125
# (median 110, MAD 10, spread 3 x 1.4826 x 10 / 110 = 40%), the 2T speedup
# 3.0/3.4/3.6 (median 3.4, MAD 0.2, spread 26%: it may fall to 3.4 / 1.26).
# "wobble" moves both inside their spreads but beyond the 10% default
# threshold; "slow" doubles the time and halves the speedup.
python3 - "${WORK}" <<'PY'
import json, os, sys
work = sys.argv[1]
def report(p50, speedup):
    return {"bench": "noise_fixture", "rows": [
        {"section": "forward_us", "key": "conv1@2T",
         "values": {"min": 0.9 * p50, "p50": p50, "max": 1.2 * p50}},
        {"section": "speedup", "key": "2T", "values": {"p50": speedup}},
    ]}
cases = {
    "run1": report(100.0, 3.0), "run2": report(110.0, 3.4),
    "run3": report(125.0, 3.6),
    "wobble": report(126.5, 3.0), "slow": report(220.0, 1.7),
}
for name, data in cases.items():
    os.makedirs(os.path.join(work, name))
    with open(os.path.join(work, name, "BENCH_noise_fixture.json"), "w") as f:
        json.dump(data, f)
PY

mkdir "${WORK}/base"
B="${WORK}/base/BENCH_noise_fixture.json"
python3 "${TOOLS}/pool_bench_runs.py" "${B}" \
    "${WORK}"/run{1,2,3}/BENCH_noise_fixture.json

echo "== wobble inside the pooled run spread must pass =="
python3 "${COMPARE}" "${B}" "${WORK}/wobble/BENCH_noise_fixture.json"

echo "== 2x regression must fail, in the time and in the speedup =="
if python3 "${COMPARE}" "${B}" "${WORK}/slow/BENCH_noise_fixture.json" \
        > "${WORK}/slow.out"; then
    echo "ERROR: compare_bench.py let a 2x regression through the run spread"
    cat "${WORK}/slow.out"
    exit 1
fi
grep -q "forward_us/conv1@2T/p50 .*REGRESSION" "${WORK}/slow.out"
grep -q "speedup/2T/p50 .*REGRESSION" "${WORK}/slow.out"

echo "== a value without a run spread keeps the plain threshold =="
if python3 "${COMPARE}" "${WORK}/run2/BENCH_noise_fixture.json" \
        "${WORK}/wobble/BENCH_noise_fixture.json" > "${WORK}/plain.out"; then
    echo "ERROR: a 15% slowdown of an unpooled value was not flagged"
    cat "${WORK}/plain.out"
    exit 1
fi

echo "== directory mode applies the same bands =="
python3 "${COMPARE}" "${WORK}/base" "${WORK}/wobble"
if python3 "${COMPARE}" "${WORK}/base" "${WORK}/slow" > /dev/null; then
    echo "ERROR: directory mode missed the 2x regression"
    exit 1
fi

echo "== committed baselines catch a 2x regression in every gated value =="
for name in BENCH_fig4_mnist_layer_time.json BENCH_fig6_mnist_overall.json; do
    python3 - "${TOOLS}" "${BASELINES}/${name}" "${WORK}/worse_${name}" <<'PY'
import json, sys
sys.path.insert(0, sys.argv[1])
from compare_bench import direction
with open(sys.argv[2]) as f:
    data = json.load(f)
scale = {"lower": 2.0, "higher": 0.5, "info": 1.0}
for row in data["rows"]:
    row.pop("run_spread", None)
    row["values"] = {col: val * scale[direction(row["section"], row["key"], col)]
                     for col, val in row["values"].items()}
with open(sys.argv[3], "w") as f:
    json.dump(data, f)
PY
    if python3 "${COMPARE}" "${BASELINES}/${name}" "${WORK}/worse_${name}" \
            --json="${WORK}/worse.json" > /dev/null; then
        echo "ERROR: ${name}: a 2x regression of every value passed"
        exit 1
    fi
    python3 - "${WORK}/worse.json" "${name}" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["pairs"][0]["rows"]
gated = [r for r in rows if r["direction"] != "info" and r["section"] != "meta"]
missed = [f'{r["section"]}/{r["key"]}/{r["column"]}'
          for r in gated if not r["regression"]]
if not gated or missed:
    print(f"ERROR: {sys.argv[2]}: 2x regression not flagged in "
          f"{missed or 'any value (none gated)'}")
    sys.exit(1)
print(f"{sys.argv[2]}: all {len(gated)} gated values flag a 2x regression")
PY
done

echo "bench_noise_check: PASS"
