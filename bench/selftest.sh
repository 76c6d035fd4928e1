#!/usr/bin/env bash
# Smoke run of every workload plus validation of the output; see selftest.py.
exec python3 "$(dirname "$0")/selftest.py" "$@"
