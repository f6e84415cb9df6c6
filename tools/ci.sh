#!/usr/bin/env bash
# CI entry point: tier-1 correctness, then a ThreadSanitizer pass over the
# engine + serving + shard-substrate + live-update + observability +
# build-determinism + CSR-differential tests (the suites that exercise
# cross-thread sharing, including the update differential gate and the
# cache-epoch race test) plus the multi-process coordinator/shard
# integration test (which now drives the UPDATE verb end to end), then an
# ASan+UBSan pass over the index-image and line-protocol fuzz suites
# (hostile-bytes paths), the summarization kernel's reference suite, the
# quotient and cone re-sign suites and the rooted search suites (keyword-cone
# level-cursor arithmetic),
# then the docs checks (dead links, protocol verbs,
# metric catalog, span taxonomy), a metrics-overhead smoke, a
# construction smoke, an index-image cold-start smoke, the shard
# scatter-gather throughput gate, a maintenance differential smoke, a CLI
# maintenance round trip that must keep the image's layer cap, a CLI batch
# smoke (same answers at 0 and 2 threads), a check that the daemon, client
# and CLI reject hostile arguments, a check that the daemon never overwrites
# an --index-image it cannot load, a short serving-layer load smoke (with the
# mixed read/update phase), and the over-the-wire bench_e2e smoke.
#
#   tools/ci.sh [jobs]
#
# Uses separate build trees so the sanitized build never dirties the main one.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== tier-1: build + ctest (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo
echo "=== tsan: engine + server + shard tests (build-tsan/) ==="
cmake -B build-tsan -S . -DBIGINDEX_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target bigindex_tests bigindex_serverd \
  bigindex_client
# halt_on_error makes any race a hard failure rather than a log line. The
# shard and update differential gates run at reduced seeds under TSan (full
# strength in the tier-1 pass above) — ShardDifferentialGate covers BOTH
# shard modes (wcc and bfs with boundary completion); the ghost-manifest
# invariants, coordinator fan-out, substrates, protocol client, live
# updater, the summarization kernel over label views, the cache-epoch race
# test, Blinks (stateless, so shared across
# concurrent Evaluate callers) and the per-graph cache's unlocked builds run
# in full.
TSAN_OPTIONS="halt_on_error=1" BIGINDEX_SHARD_GATE_SEEDS=5 \
  BIGINDEX_UPDATE_GATE_SEEDS=5 \
  ./build-tsan/tests/bigindex_tests \
  --gtest_filter='ExecutorPool*:QueryContext*:QueryEngine*:Deadline*:AnswerCache*:SearchService*:LineProtocol*:TcpServer*:Metrics*:Trace*:SummarizeKernel*:BuildDeterminism*:CsrDifferential*:ShardCoordinator*:ShardSubstrate*:ShardDifferentialGate*:ExtractShard*:GhostManifest*:ShardImage*:ProtocolClient*:InfoVerb*:NormalizeUpdates*:IncrementalBisim*:MaintainIndex*:VersionStore*:LiveUpdater*:ServiceUpdate*:ServingStack*:CacheEpochRace*:UpdateProtocol*:UpdateVerb*:ShardedUpdate*:UpdateDifferentialGate*:Blinks*:PerGraphCache*'

echo
echo "=== tsan: multi-process coordinator/shard integration ==="
# Two shard worker processes + a scatter-gather coordinator, differentially
# checked against a monolithic server — all four processes TSan-built.
tools/shard_integration.sh build-tsan

echo
echo "=== asan+ubsan: fuzz suites + kernel reference suites (build-asan/) ==="
cmake -B build-asan -S . -DBIGINDEX_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" --target bigindex_tests
# The fuzz suites feed truncated/corrupted images through the mmap loader
# and truncated/hostile lines (33-keyword queries to every algorithm
# included) through the wire codec, a LineHandler and a ProtocolClient
# facing an endless reply line or an endless reply block; the
# summarization kernel's reference suite covers the index arithmetic of the
# successors-first order and the cyclic remainder's rounds. The quotient
# routine numbers blocks and writes rows for both the kernel and the cone
# re-sign: the SummarizeKernel suite checks it against an all-edges quotient,
# and the IncrementalBisim and MaintainIndex suites drive it through
# ResignCone on random update streams and malformed input. The keyword-cone
# kernel's level cursors serve bkws, Blinks and bidirectional alike: the
# bidirectional suites (the parameterized ones carry an instantiation
# prefix, hence the leading `*`) run all three against the priority-queue
# reference, the Bkws and Blinks suites cover each scheduler's edge cases,
# and the dataset sweep compares the three on generated knowledge graphs.
# Any out-of-bounds read or UB is a hard failure.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tests/bigindex_tests \
  --gtest_filter='IndexImageFuzz*:LineProtocolFuzz*:BisimKernelReference*:*Bidirectional*:Bkws*:Blinks*:*DatasetEquivalence*:SummarizeKernel*:IncrementalBisim*:MaintainIndex*'

echo
echo "=== docs: no dead relative links in *.md ==="
tools/check_doc_links.sh

echo
echo "=== docs: protocol verbs match server dispatch ==="
tools/check_protocol_docs.sh

echo
echo "=== docs: metric catalog matches registered metrics ==="
tools/check_metrics_docs.sh

echo
echo "=== docs: span taxonomy matches TRACE_SPAN sites ==="
tools/check_span_docs.sh

echo
echo "=== smoke: disabled-instrumentation overhead budget ==="
# Fails if the spans, counter increments and histogram records that real
# queries execute, priced at the disabled primitives' measured costs, would
# cost > 2% of their query time (BIGINDEX_OBS_OVERHEAD_PCT overrides the
# threshold).
./build/bench/bench_obs_overhead --check

echo
echo "=== smoke: construction (run-to-run identical images) ==="
# Builds a small default index and a small Algorithm-1 index twice each and
# fails if either pair of index images differs.
./build/bench/bench_construction --smoke

echo
echo "=== smoke: index image cold start (load correctness + >=10x) ==="
# Saves the dataset files and an index image, and fails unless the mmap
# image loads correctly (identical answers) and beats parse + build by
# >= 10x.
./build/bench/bench_index_load --check

echo
echo "=== smoke: shard scatter-gather gate (1-shard >= 0.9x monolithic) ==="
# Fails unless the 1-shard coordinator stays within 0.9x of the monolithic
# service on the same workload AND answers are identical at 1/2/4 shards.
BIGINDEX_BENCH_SCALE="${BIGINDEX_BENCH_SCALE:-0.002}" \
  ./build/bench/bench_shards --smoke

echo
echo "=== smoke: maintenance differential (incremental == rebuild) ==="
# One mixed update batch through incremental maintenance and a rebuild;
# fails unless the two index images are byte-identical.
./build/bench/bench_maintenance --smoke

echo
echo "=== smoke: CLI update keeps the image's layer cap ==="
# Builds a 2-layer image, applies one edge with `bigindex_cli update
# --check`, and fails unless the successor stays at 2 layers (the image
# header records max_layers) and is byte-identical to a rebuild.
CLI_DIR="$(mktemp -d)"
./build/tools/bigindex_cli gen yago3 0.004 "$CLI_DIR/g.txt" "$CLI_DIR/o.txt" \
  >/dev/null
./build/tools/bigindex_cli build "$CLI_DIR/g.txt" "$CLI_DIR/o.txt" \
  "$CLI_DIR/idx.img" 2 >/dev/null
./build/tools/bigindex_cli update "$CLI_DIR/g.txt" "$CLI_DIR/o.txt" \
  "$CLI_DIR/idx.img" add:1:2 --check | tee "$CLI_DIR/update.txt"
grep -q '^maintained 2 -> 2 layer' "$CLI_DIR/update.txt" || {
  echo "FAIL: update did not keep the 2-layer cap" >&2
  exit 1
}

echo
echo "=== smoke: CLI batch gives the same answers at 0 and 2 threads ==="
# Six two-keyword queries over the graph's twelve most frequent labels; the
# per-query answer lines must match once the timings are stripped.
grep -oE '^[A-Za-z0-9]+_T[0-9]+_[0-9]+$' "$CLI_DIR/g.txt" | sort | uniq -c |
  sort -k1,1nr -k2,2 | head -12 | awk '{print $2}' | paste -d, - - \
  >"$CLI_DIR/queries.txt"
[[ "$(wc -l <"$CLI_DIR/queries.txt")" -eq 6 ]] || {
  echo "FAIL: could not pick 6 queries from the generated graph" >&2
  exit 1
}
for threads in 0 2; do
  ./build/tools/bigindex_cli batch "$CLI_DIR/g.txt" "$CLI_DIR/o.txt" \
    "$CLI_DIR/idx.img" bkws "$CLI_DIR/queries.txt" "$threads" |
    grep -E '^query [0-9]+: [0-9]+ answer\(s\)' | sed -E 's/ in [0-9.]+ ms//' \
    >"$CLI_DIR/batch$threads.txt"
done
cat "$CLI_DIR/batch0.txt"
[[ "$(wc -l <"$CLI_DIR/batch0.txt")" -eq 6 ]] &&
  diff "$CLI_DIR/batch0.txt" "$CLI_DIR/batch2.txt" || {
  echo "FAIL: batch answers differ between 0 and 2 threads" >&2
  exit 1
}
rm -rf "$CLI_DIR"

echo
echo "=== smoke: serverd, client and CLI reject hostile arguments ==="
# A negative thread count must not become a request for ~2^64 threads, a
# port above 65535 must not wrap around, a deadline that is not a number
# must not become 0, and a positional argument past a CLI subcommand's last
# one must not be dropped: each is a usage error before any work. Each case
# is "binary|arguments|flag or subcommand named in the error line".
while IFS='|' read -r bin args flag; do
  # shellcheck disable=SC2086  # word-split the arguments
  if out="$(timeout 10 "./build/tools/$bin" $args 2>&1 </dev/null)"; then
    echo "FAIL: $bin $args exited 0" >&2
    exit 1
  fi
  grep -q "^error: $flag wants" <<<"$out" || {
    echo "FAIL: $bin $args printed no error line:" >&2
    echo "$out" >&2
    exit 1
  }
  echo "rejected: $bin $args"
done <<'CASES'
bigindex_serverd|--threads -2|--threads
bigindex_serverd|--port 70000|--port
bigindex_serverd|--deadline-ms abc|--deadline-ms
bigindex_client|--connect 127.0.0.1 70000|port
bigindex_cli|build g o idx.img 3 extra stuff|build
bigindex_cli|stats g o idx.img extra|stats
CASES
# The scrape is served on the protocol port; the old second-port flag is
# gone and must be refused, not ignored.
if out="$(timeout 10 ./build/tools/bigindex_serverd --metrics-port 9419 \
  2>&1 </dev/null)"; then
  echo "FAIL: bigindex_serverd --metrics-port 9419 exited 0" >&2
  exit 1
fi
grep -q '^error: unknown flag --metrics-port' <<<"$out" || {
  echo "FAIL: bigindex_serverd --metrics-port printed no unknown-flag error:" >&2
  echo "$out" >&2
  exit 1
}
echo "rejected: bigindex_serverd --metrics-port 9419"

echo
echo "=== smoke: serverd never overwrites an --index-image it cannot load ==="
# An existing --index-image path is only ever loaded: a text file there must
# fail startup (not serve until the timeout, exit 124) and keep its bytes.
NOT_IMAGE_DIR="$(mktemp -d)"
printf 'a text file, not a BiG-index image ....\n' >"$NOT_IMAGE_DIR/idx.img"
cp "$NOT_IMAGE_DIR/idx.img" "$NOT_IMAGE_DIR/expected"
status=0
timeout 60 ./build/tools/bigindex_serverd --dataset yago3 --scale 0.002 \
  --layers 2 --port 0 --index-image "$NOT_IMAGE_DIR/idx.img" \
  2>"$NOT_IMAGE_DIR/log" </dev/null || status=$?
if [[ "$status" -eq 0 || "$status" -eq 124 ]] ||
  ! cmp -s "$NOT_IMAGE_DIR/idx.img" "$NOT_IMAGE_DIR/expected"; then
  echo "FAIL: serverd took a text file for an index image (exit $status)" >&2
  cat "$NOT_IMAGE_DIR/log" >&2
  exit 1
fi
echo "refused (exit $status): $(grep '^error:' "$NOT_IMAGE_DIR/log")"
rm -rf "$NOT_IMAGE_DIR"

echo "=== gate: maintenance speedup (>= 2x at small batches) ==="
# Measures maintained-vs-rebuilt wall clock at batch sizes 1 and 4 and fails
# unless incremental maintenance beats a from-scratch rebuild by >= 2x while
# staying byte-identical (one re-measure retry absorbs scheduler noise).
./build/bench/bench_maintenance --check

echo
echo "=== smoke: serving-layer load generator (~2s) ==="
# Tiny instance; exercises the full service pipeline (admission, dispatch
# strands, cache, deadlines, backpressure, mixed read/update serving with live epoch
# swaps) end to end without benchmarking anything.
BIGINDEX_BENCH_SCALE="${BIGINDEX_BENCH_SCALE:-0.002}" \
  ./build/bench/bench_server --smoke

echo
echo "=== smoke: bench_e2e over the wire (~8s) ==="
# Every bench_e2e workload for about a second through real sockets, with its
# correctness checks (answers, failed == 0); builds its own Release tree.
bash bench_e2e/run.sh --smoke

echo
echo "CI OK"
