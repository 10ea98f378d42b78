#!/bin/sh
# Metrics-catalogue lint, both ways: every metric family registered in
# non-test source must appear in DESIGN.md's catalogue (§12's table or
# §17's tracing/SLO additions), and every family the catalogue lists
# must still be registered somewhere. New instruments land with
# documentation, and removed ones leave it, or CI fails here — the
# catalogue is the contract dashboards are built on.
set -eu

DESIGN=${DESIGN:-DESIGN.md}
if [ ! -f "$DESIGN" ]; then
    echo "metrics lint: $DESIGN not found" >&2
    exit 1
fi

# Registration call sites only (Counter("seer_...", CounterVec, Gauge,
# GaugeFunc(Vec), Histogram(Vec)) — not every string mentioning a
# series — so derived _sum/_count/_bucket references don't count.
families=$(grep -rhoE \
    '(Counter|CounterVec|CounterFunc|CounterFuncVec|Gauge|GaugeVec|GaugeFunc|GaugeFuncVec|Histogram|HistogramVec)\("seer_[a-z_]+"' \
    --include='*.go' --exclude='*_test.go' cmd/ internal/ \
    | sed 's/.*("\(seer_[a-z_]*\)"/\1/' | sort -u)

if [ -z "$families" ]; then
    echo "metrics lint: no registered families found (regex rot?)" >&2
    exit 1
fi

status=0
count=0
for f in $families; do
    count=$((count + 1))
    if ! grep -q "$f" "$DESIGN"; then
        echo "UNDOCUMENTED metric family: $f (add it to $DESIGN §12 or §17)" >&2
        status=1
    fi
done

# The other way: the catalogue's rows are table lines whose first cell
# names one or more `seer_…` families (a "/"-joined pair names two).
# Derived series (_bucket/_sum/_count) and families registered by
# composing a prefix at run time are named by their registered stem.
listed=$(grep -E '^\| *`seer_' "$DESIGN" \
    | cut -d'|' -f2 \
    | grep -oE 'seer_[a-z_]+' | sort -u)
for f in $listed; do
    if ! printf '%s\n' "$families" | grep -qx "$f"; then
        echo "STALE catalogue entry: $f is documented in $DESIGN but registered nowhere" >&2
        status=1
    fi
done

if [ $status -ne 0 ]; then
    exit $status
fi
echo "metrics lint: all $count registered families documented in $DESIGN, and every catalogued family registered"
