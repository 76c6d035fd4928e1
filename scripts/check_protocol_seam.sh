#!/usr/bin/env bash
# Fails if protocol-agnostic code branches on the protocol, if anything
# but the WAL reaches for the disk, if a client arms a timer outside its
# deadline helper, or if an interactive operation is issued outside the
# client's command path.
#
# Every per-level decision lives in crates/hat-core/src/protocol/, behind
# ProtocolEngine (server half) and ClientProtocol (client half). The
# client core, the server, the frontends and the threaded runtime may
# name the ProtocolKind *type* — to carry it to the registry — but never
# a variant, its guarantee (`.model(`, the Table 3 model) or a
# comparison on it; `checker_policy()` is how api.rs hands the model to
# the streaming checker. Test modules (everything from `#[cfg(test)]`
# down) are exempt.
#
# `sync_data` / `sync_all` are called in crates/hat-storage/src/wal.rs and
# nowhere else: Store::persist, the durability barrier, stays the only
# road to the disk, so no write path can grow a sync of its own again.
#
# On the client side, `set_timer(` is called in
# crates/hat-core/src/client/deadline.rs and nowhere else in client/ or
# protocol/: the client core and every ClientProtocol half arm deadlines
# through the one-live-timer helper, so one timer per request (and a
# backend heap full of timers nothing cancels) cannot creep back.
#
# An interactive operation is issued (`issue_read(`, `issue_read_many(`,
# `issue_write(`, `issue_scan(`, `start_commit(`) in
# crates/hat-core/src/client/ and nowhere else: both backends run every
# operation as a ClientCmd through Client::start_cmd / finish_cmd, so no
# backend can grow a per-operation path of its own again.
#
# Outside test modules, `BinaryHeap` is named in crates/hat-sim/src/event.rs
# and nowhere else in crates/*/src or src/: the simulator and the threaded
# runtime's node threads both schedule on hat_sim::EventQueue (ordered by
# time, then insertion), so no second scheduler can grow beside it.
#
# Outside test modules, `Ctx::detached(` is called in
# crates/hat-sim/src/engine.rs and nowhere else in crates/*/src or src/:
# hat_sim::Engine is the only library code that calls actor callbacks. The
# simulator and every threaded-runtime node thread (a wall-clock Engine)
# share its delivery, timer, routing and tracing, so no second dispatch
# loop can grow beside it. Tests and the bench's inline harness
# (bench/src/inline.rs, outside this script's reach) may still drive an
# actor by hand.
#
# An engine's own wire vocabulary — the `EngineMsg` body and its family
# types `RampMsg`, `MavMsg`, `LockMsg` and RAMP's `VersionReq` — is named
# in crates/hat-core/src/protocol/ and nowhere else in crates/*/src, src/
# or examples/, test modules exempt. The one exception is messages.rs,
# whose envelopes (`Msg::EngineReq`, `Msg::EngineResp`, `Msg::Engine`)
# carry an `EngineMsg` without naming what is inside it. The server and
# the client core move bodies unopened, so a new engine message edits
# its engine's file alone.
set -euo pipefail
cd "$(dirname "$0")/.."

files=(
    crates/hat-core/src/client/*.rs
    crates/hat-core/src/server.rs
    crates/hat-core/src/api.rs
    crates/hat-core/src/frontend.rs
    crates/hat-runtime/src/*.rs
)
pattern='ProtocolKind::|\.model\(|\.protocol[[:space:]]*(==|!=)|match[[:space:]].*\.protocol[[:space:]]*\{'

status=0
for f in "${files[@]}"; do
    if hits=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$pattern"); then
        echo "$f branches on the protocol:" >&2
        echo "$hits" >&2
        status=1
    fi
done
for f in crates/hat-core/src/client/*.rs crates/hat-core/src/protocol/*.rs; do
    [ "$f" = crates/hat-core/src/client/deadline.rs ] && continue
    if hits=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'set_timer('); then
        echo "$f arms a timer outside client/deadline.rs:" >&2
        echo "$hits" >&2
        status=1
    fi
done
if hits=$(grep -rnE '\.sync_(data|all)\(' --include='*.rs' crates src tests examples |
    grep -v '^crates/hat-storage/src/wal\.rs:'); then
    echo "disk sync outside crates/hat-storage/src/wal.rs:" >&2
    echo "$hits" >&2
    status=1
fi
if hits=$(grep -rnE '\b(issue_read|issue_read_many|issue_write|issue_scan|start_commit)\(' \
    --include='*.rs' crates src tests examples | grep -v '^crates/hat-core/src/client/'); then
    echo "interactive operation issued outside crates/hat-core/src/client/:" >&2
    echo "$hits" >&2
    status=1
fi
while IFS= read -r f; do
    body=$(sed '/#\[cfg(test)\]/,$d' "$f")
    if [ "$f" != crates/hat-sim/src/event.rs ] && hits=$(grep -n 'BinaryHeap' <<<"$body"); then
        echo "$f names BinaryHeap outside crates/hat-sim/src/event.rs:" >&2
        echo "$hits" >&2
        status=1
    fi
    if [ "$f" != crates/hat-sim/src/engine.rs ] && hits=$(grep -n 'Ctx::detached(' <<<"$body"); then
        echo "$f calls an actor outside crates/hat-sim/src/engine.rs:" >&2
        echo "$hits" >&2
        status=1
    fi
done < <(find crates/*/src src -name '*.rs' | sort)
while IFS= read -r f; do
    case "$f" in
    crates/hat-core/src/protocol/*) continue ;;
    crates/hat-core/src/messages.rs) vocabulary='RampMsg|MavMsg|LockMsg|VersionReq' ;;
    *) vocabulary='EngineMsg|RampMsg|MavMsg|LockMsg|VersionReq' ;;
    esac
    if hits=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -nwE "$vocabulary"); then
        echo "$f names an engine's message vocabulary outside crates/hat-core/src/protocol/:" >&2
        echo "$hits" >&2
        status=1
    fi
done < <(find crates/*/src src examples -name '*.rs' | sort)
exit $status
