#!/usr/bin/env bash
# Fails if protocol-agnostic code branches on the protocol.
#
# Every per-level decision lives in crates/hat-core/src/protocol/, behind
# ProtocolEngine (server half) and ClientProtocol (client half). The
# client core, the server, the frontends and the threaded runtime may
# name the ProtocolKind *type* — to carry it to the registry — but never
# a variant, a classification helper or a comparison on it. Test modules
# (everything from `#[cfg(test)]` down) are exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

files=(
    crates/hat-core/src/client/*.rs
    crates/hat-core/src/server.rs
    crates/hat-core/src/api.rs
    crates/hat-core/src/frontend.rs
    crates/hat-runtime/src/*.rs
)
pattern='ProtocolKind::|\.is_ramp\(\)|\.protocol[[:space:]]*(==|!=)|match[[:space:]].*\.protocol[[:space:]]*\{'

status=0
for f in "${files[@]}"; do
    if hits=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$pattern"); then
        echo "$f branches on the protocol:" >&2
        echo "$hits" >&2
        status=1
    fi
done
exit $status
