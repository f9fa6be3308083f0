#!/usr/bin/env bash
# Builds levnet_perf in build-perf/ and runs every workload, each in its own
# process, writing build-perf/results.json:
#
#   perf/run.sh --seed S [--trace] [--repeat N] [--out FILE]
#
# The same as `python3 perf/run.py` without --workload (see README.md).
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
