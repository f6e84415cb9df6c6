#!/usr/bin/env bash
# Cross-verifies the metric catalog between its two sources of truth: the
# catalog tables in docs/OBSERVABILITY.md ("## Metric catalog", rows that
# start with | `bigindex_...`) and the names registered in src/ through
# MetricsRegistry::GetCounter / GetGauge / GetHistogram. Fails when a
# registered metric is missing from the catalog, or when a catalogued
# metric no longer exists anywhere in src/.
#
#   tools/check_metrics_docs.sh
#
# tools/ci.sh runs this on every pass, next to check_protocol_docs.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

DOC=docs/OBSERVABILITY.md
SRC=src

# Catalog side: the first column of every table row naming a metric; a
# label block such as {algorithm=...} is not part of the name.
doc_metrics=$(grep -oE '^\| `bigindex_[a-z0-9_]+' "$DOC" \
  | sed 's/^| `//' | sort -u)

# Code side: the string literal passed as the first argument of a Get*
# registration call, which may sit on the line after the call.
src_metrics=$(find "$SRC" -name '*.h' -o -name '*.cc' | sort | xargs cat \
  | perl -0777 -ne \
    'print "$1\n" while /Get(?:Counter|Gauge|Histogram)\(\s*"([^"]+)"/g' \
  | sort -u)

if [ -z "$doc_metrics" ]; then
  echo "FAIL: no metric catalog rows found in $DOC" >&2
  exit 1
fi
if [ -z "$src_metrics" ]; then
  echo "FAIL: no metric registrations found in $SRC" >&2
  exit 1
fi

failures=0
for m in $(comm -13 <(echo "$doc_metrics") <(echo "$src_metrics")); do
  echo "metric '$m' registered in $SRC but not catalogued in $DOC" >&2
  failures=$((failures + 1))
done
# A catalogued name need not go through Get* (the registry's own
# self-metric is created inside MetricsRegistry), but it must exist in src/.
for m in $(comm -23 <(echo "$doc_metrics") <(echo "$src_metrics")); do
  if ! grep -rqF "\"$m\"" "$SRC"; then
    echo "metric '$m' catalogued in $DOC but not found in $SRC" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "FAIL: $failures metric catalog mismatch(es)" >&2
  exit 1
fi
echo "metric catalog OK ($(echo "$doc_metrics" | wc -l) metrics)"
