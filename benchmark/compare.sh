#!/usr/bin/env bash
# compare.sh A.json B.json — two result sets of `run.sh` (A the parent or
# the first set, B the change or the second) under the benchmark's bounds:
# exact metrics, digests and input fingerprints equal, every end-to-end
# metric at most its bound worse in B; medians and quartiles side by side,
# then one row per workload. Exits nonzero when B fails.
set -euo pipefail
exec "$(dirname "$0")/run.sh" compare "$@"
