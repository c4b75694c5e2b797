#!/usr/bin/env bash
# Regenerates the committed bench-results/ artifacts from a Release build,
# or (--check) verifies the checked-in artifacts are structurally current.
#
#   scripts/refresh_bench_results.sh          run every bench binary, write
#                                             bench-results/BENCH_*.json
#   scripts/refresh_bench_results.sh --check  regenerate into a temp dir and
#                                             diff against bench-results/: a
#                                             missing artifact, an artifact
#                                             with no surviving bench, a
#                                             changed JSON key set or a
#                                             changed search tally fails
#                                             loudly
#
# Timings and rates legitimately vary run to run, so --check compares the
# sorted key sets of each artifact: a bench grew or renamed fields and the
# committed artifact silently kept the old schema. The tallies of complete
# searches do not vary (the explorer's counts are deterministic at any
# thread count), so every nested `search` cell (set_search_tally in
# bench/bench_util.hpp) must also equal the committed one exactly: a stale
# artifact or a change that moves a count fails. Excluded by name, with the
# reason:
#   BENCH_F5.json search  the top-level cell sums series 3's parallel
#                         stateful searches, whose split of executions and
#                         cuts depends on worker timing
SEARCH_EXCLUDED="BENCH_F5.json:search"
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

cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release --target \
  $(ls bench/bench_*.cpp | xargs -n1 basename | sed 's/\.cpp$//')

# Flatten a JSON artifact to its sorted set of key names (nested keys
# included, array indices ignored so per-row cells compare by shape).
key_set() {
  python3 - "$1" <<'EOF'
import json, sys
def keys(prefix, v, out):
    if isinstance(v, dict):
        for k, vv in v.items():
            out.add(f"{prefix}{k}")
            keys(f"{prefix}{k}.", vv, out)
    elif isinstance(v, list):
        for vv in v:
            keys(f"{prefix}[]", vv, out)
with open(sys.argv[1]) as f:
    data = json.load(f)
out = set()
keys("", data, out)
print("\n".join(sorted(out)))
EOF
}

# Every nested `search` cell of artifact $2 (named $1), one sorted line
# each: "<path> <cell as JSON>", minus the cells SEARCH_EXCLUDED names.
search_cells() {
  python3 - "$1" "$2" "${SEARCH_EXCLUDED}" <<'EOF'
import json, sys
name, path, excluded = sys.argv[1], sys.argv[2], set(sys.argv[3].split())
def cells(prefix, v, out):
    if isinstance(v, dict):
        for k, vv in v.items():
            if k == "search" and f"{name}:{prefix}{k}" not in excluded:
                out.append(f"{prefix}{k} {json.dumps(vv, sort_keys=True)}")
            cells(f"{prefix}{k}.", vv, out)
    elif isinstance(v, list):
        for i, vv in enumerate(v):
            cells(f"{prefix}[{i}].", vv, out)
with open(path) as f:
    data = json.load(f)
out = []
cells("", data, out)
print("\n".join(sorted(out)))
EOF
}

if [[ "${CHECK}" == "1" ]]; then
  TMP="$(mktemp -d)"
  trap 'rm -rf "${TMP}"' EXIT
  (cd "${TMP}" && for bench in "${OLDPWD}"/build-release/bench/bench_*; do
    [[ -x "${bench}" ]] || continue
    echo "== $(basename "${bench}")"
    "${bench}" >/dev/null
  done)
  FAIL=0
  for fresh in "${TMP}"/BENCH_*.json; do
    name="$(basename "${fresh}")"
    committed="bench-results/${name}"
    if [[ ! -f "${committed}" ]]; then
      echo "refresh-bench: STALE — ${committed} missing (bench now emits it)" >&2
      FAIL=1
      continue
    fi
    if ! diff <(key_set "${committed}") <(key_set "${fresh}") >/dev/null; then
      echo "refresh-bench: STALE — ${committed} key set drifted:" >&2
      diff <(key_set "${committed}") <(key_set "${fresh}") | sed 's/^/  /' >&2 || true
      FAIL=1
    fi
    if ! diff <(search_cells "${name}" "${committed}") \
              <(search_cells "${name}" "${fresh}") >/dev/null; then
      echo "refresh-bench: STALE — ${committed} search tallies differ (< committed, > fresh):" >&2
      diff <(search_cells "${name}" "${committed}") \
           <(search_cells "${name}" "${fresh}") | sed 's/^/  /' >&2 || true
      FAIL=1
    fi
  done
  for committed in bench-results/BENCH_*.json; do
    name="$(basename "${committed}")"
    if [[ ! -f "${TMP}/${name}" ]]; then
      echo "refresh-bench: STALE — ${committed} has no bench emitting it" >&2
      FAIL=1
    fi
  done
  # The F8 artifact must carry the agreement-as-a-service soak cells
  # (set_soak_fields in bench/bench_util.hpp). The generic key-set diff
  # would accept a bench that silently stopped stamping them on *both*
  # sides, so the required keys are pinned by name.
  # (grep without -q: early exit would SIGPIPE the key_set python under
  # pipefail even when the key is present.)
  for key in soak_ops_per_sec soak_p50_ticks soak_p99_ticks soak_peak_live \
             soak_instances_gcd soak_audited soak_violations soak_shards \
             soak_shard_ops soak_dedup_hits soak_scaling_x; do
    if ! key_set bench-results/BENCH_F8.json 2>/dev/null \
        | grep -x "${key}" >/dev/null; then
      echo "refresh-bench: STALE — bench-results/BENCH_F8.json missing soak cell ${key}" >&2
      FAIL=1
    fi
  done
  [[ "${FAIL}" == "0" ]] || exit 1
  echo "BENCH RESULTS CURRENT"
  exit 0
fi

mkdir -p bench-results
cd bench-results
for bench in ../build-release/bench/bench_*; do
  [[ -x "${bench}" ]] || continue
  echo "== $(basename "${bench}")"
  "${bench}"
done
cd ..
echo "BENCH RESULTS REFRESHED"
