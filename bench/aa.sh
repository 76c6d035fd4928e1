#!/usr/bin/env bash
# A/A noise study; see aa.py.
exec python3 "$(dirname "$0")/aa.py" "$@"
