#!/usr/bin/env bash
# Regenerates the committed bench-results/ artifacts from a Release build,
# or (--check) verifies that the committed artifacts equal a fresh run.
#
#   scripts/refresh_bench_results.sh          run every bench binary, write
#                                             bench-results/BENCH_*.json
#   scripts/refresh_bench_results.sh --check  regenerate into a temp dir and
#                                             diff every value against
#                                             bench-results/
#
# An artifact records only facts that repeat on any host and at any thread
# count (bench/bench_util.hpp), so --check flattens each one to path -> value
# and compares every value exactly. A missing or orphaned artifact, a path on
# one side only, or a differing value fails, naming the path and both values.
# An excluded cell is compared by key only; each entry names its cause:
#   BENCH_F5.json search                 the top-level cell sums series 3's
#                                        parallel stateful searches, whose
#                                        split of executions and cuts depends
#                                        on worker timing
#   BENCH_F8.json soak_configs[].served  stage 2 drives each shard
#                                        configuration for wall-clock time, so
#                                        what it serves depends on thread
#                                        timing
EXCLUDED="BENCH_F5.json search
BENCH_F8.json soak_configs[].served"
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
for arg in "$@"; do
  case "${arg}" in
    --check) CHECK=1 ;;
    *)
      echo "usage: scripts/refresh_bench_results.sh [--check]" >&2
      exit 2
      ;;
  esac
done

# The benches built from bench/ sources (a stale binary in build-release/
# whose source is gone never runs).
BENCHES=(bench/bench_*.cpp)
BENCHES=("${BENCHES[@]##*/}")
BENCHES=("${BENCHES[@]%.cpp}")
cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release --target "${BENCHES[@]}"
ROOT="$(pwd)"

# Runs every bench in directory $1, where each writes its artifact.
run_benches() (
  cd "$1"
  for bench in "${BENCHES[@]}"; do
    echo "== ${bench}" >&2
    "${ROOT}/build-release/bench/${bench}"
  done
)

if [[ "${CHECK}" == "0" ]]; then
  mkdir -p bench-results
  run_benches bench-results
  echo "BENCH RESULTS REFRESHED"
  exit 0
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
run_benches "${TMP}" >/dev/null
python3 - bench-results "${TMP}" "${EXCLUDED}" <<'EOF'
import json, os, re, sys
committed_dir, fresh_dir, excluded = sys.argv[1], sys.argv[2], sys.argv[3]
excluded = [line.split() for line in excluded.splitlines()]

def flatten(path, v, out):
    if isinstance(v, dict) and v:
        for k, vv in v.items():
            flatten(f"{path}.{k}" if path else k, vv, out)
    elif isinstance(v, list) and v:
        for i, vv in enumerate(v):
            flatten(f"{path}[{i}]", vv, out)
    else:
        out[path] = v
    return out

def is_excluded(name, path):
    shape = re.sub(r"\[\d+\]", "[]", path)
    return any(name == file and (shape == cell or shape.startswith(cell + ".")
                                 or shape.startswith(cell + "["))
               for file, cell in excluded)

def artifacts(d):
    return {n for n in os.listdir(d) if n.startswith("BENCH_") and n.endswith(".json")}

def stale(msg):
    global ok
    print(f"refresh-bench: STALE — {msg}", file=sys.stderr)
    ok = False

ok = True
committed, fresh = artifacts(committed_dir), artifacts(fresh_dir)
for name in sorted(fresh - committed):
    stale(f"bench-results/{name} missing (a bench now emits it)")
for name in sorted(committed - fresh):
    stale(f"bench-results/{name} has no bench emitting it")
for name in sorted(committed & fresh):
    with open(os.path.join(committed_dir, name)) as f:
        old = flatten("", json.load(f), {})
    with open(os.path.join(fresh_dir, name)) as f:
        new = flatten("", json.load(f), {})
    for path in sorted(old.keys() - new.keys()):
        stale(f"{name} {path}: committed {json.dumps(old[path])}, absent from the fresh run")
    for path in sorted(new.keys() - old.keys()):
        stale(f"{name} {path}: fresh {json.dumps(new[path])}, absent from the committed artifact")
    for path in sorted(old.keys() & new.keys()):
        a, b = old[path], new[path]
        if (type(a) is not type(b) or a != b) and not is_excluded(name, path):
            stale(f"{name} {path}: committed {json.dumps(a)} != fresh {json.dumps(b)}")
sys.exit(0 if ok else 1)
EOF
echo "BENCH RESULTS CURRENT"
