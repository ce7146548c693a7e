#!/bin/sh
# CLI round trips that no `go test` reaches (`make cli-smoke`): the commands
# themselves, end to end, through their files and exit codes.
#
#  1. adaptivetrace -record / -diff: two same-seed flight recordings of the
#     1000-session E10 soak must be record-for-record identical under
#     trace.Diff — every timer fire, link transmission, PDU and delivery, in
#     virtual-time order, per shard. 1/16 sampling keeps the rings covering
#     the whole run so a divergence cannot hide behind a ring wrap.
#  2. adaptivectl migrate, on the simulator and over UDP loopback: each exits
#     nonzero unless delivery is exact across the handoff and the stale-epoch
#     replay is fenced.
#  3. adaptivectl status runs the migration-handover scenario and must report
#     the one scripted migration and no failed one.
#  4. Every other binary starts and finishes: adaptiveqos derives a Table-1
#     application's configuration, adaptivetrace records E3 and renders it both
#     ways (what `make trace` does), and each example exits 0.
set -eu

cd "$(dirname "$0")/.."

go run ./cmd/adaptivetrace -record e10 -sessions 1000 -sample 16 -o CLI_e10_a.trace
go run ./cmd/adaptivetrace -record e10 -sessions 1000 -sample 16 -o CLI_e10_b.trace
go run ./cmd/adaptivetrace -diff CLI_e10_a.trace CLI_e10_b.trace

go run ./cmd/adaptivectl migrate -seed 12
go run ./cmd/adaptivectl migrate -live -seed 12
go run ./cmd/adaptivectl status -scenario scenarios/migration-handover.json | grep 'migrations=1 failed=0'

go run ./cmd/adaptiveqos -app "Voice Conversation" | grep 'Stage II (SCS): *{conn='
go run ./cmd/adaptivetrace -record e3 -sample 16 -o CLI_e3.trace
go run ./cmd/adaptivetrace -summary CLI_e3.trace
go run ./cmd/adaptivetrace -chrome CLI_e3.json -spans CLI_e3.trace
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

echo "cli-smoke: E10 flight recordings identical; migration gate passed in sim and live; status reported the handover; every binary ran"
