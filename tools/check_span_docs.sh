#!/usr/bin/env bash
# Cross-verifies the span taxonomy between its two sources of truth: the
# "## Span taxonomy" table in docs/OBSERVABILITY.md (rows that start with
# | `layer/phase`) and the TRACE_SPAN("layer/phase") literals in src/.
# Fails when a span opened in src/ has no taxonomy row, or when a row
# names a span that no longer exists anywhere in src/.
#
#   tools/check_span_docs.sh
#
# tools/ci.sh runs this on every pass, next to check_metrics_docs.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

DOC=docs/OBSERVABILITY.md
SRC=src

# Taxonomy side: the first column of every row in the span taxonomy
# section (up to the next "## " heading).
doc_spans=$(awk '/^## Span taxonomy/ {on = 1; next} /^## / {on = 0} on' "$DOC" \
  | grep -oE '^\| `[a-z0-9_]+(/[a-z0-9_]+)+`' \
  | sed -E 's/^\| `//; s/`$//' | sort -u)

# Code side: the string literal passed to TRACE_SPAN.
src_spans=$(grep -rhoE 'TRACE_SPAN\("[^"]+"\)' "$SRC" \
  | sed -E 's/^TRACE_SPAN\("//; s/"\)$//' | sort -u)

if [ -z "$doc_spans" ]; then
  echo "FAIL: no span taxonomy rows found in $DOC" >&2
  exit 1
fi
if [ -z "$src_spans" ]; then
  echo "FAIL: no TRACE_SPAN literals found in $SRC" >&2
  exit 1
fi

failures=0
for s in $(comm -13 <(echo "$doc_spans") <(echo "$src_spans")); do
  echo "span '$s' opened in $SRC but missing from the taxonomy in $DOC" >&2
  failures=$((failures + 1))
done
for s in $(comm -23 <(echo "$doc_spans") <(echo "$src_spans")); do
  echo "span '$s' listed in $DOC but opened nowhere in $SRC" >&2
  failures=$((failures + 1))
done

if [ "$failures" -gt 0 ]; then
  echo "FAIL: $failures span taxonomy mismatch(es)" >&2
  exit 1
fi
echo "span taxonomy OK ($(echo "$doc_spans" | wc -l) spans)"
