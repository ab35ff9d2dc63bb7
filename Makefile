# Development targets. `make check` is the pre-merge gate: static vetting,
# the waschedlint analyzer suite, the full test suite under the race
# detector, the burst-buffer and token-bucket replay smoke tests (all
# invariant checks on), the stored-digest check of every registered
# sweep's output, and a short-budget run of every fuzz target (seed corpus
# + a few seconds of mutation each).

GO      ?= go
FUZZTIME ?= 10s
DIGESTDIR := .sweep-digests
SWEEPDIGESTS := internal/experiments/testdata/sweep_digests.txt

.PHONY: build vet lint test race fuzz bbcheck tbfcheck sweep-digests bench-replay bench-replay-check bench-system bench-system-check check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (cmd/waschedlint): determinism and
# resource-hygiene invariants vet cannot see. Exits non-zero on findings.
lint:
	$(GO) run ./cmd/waschedlint ./...

test:
	$(GO) test ./...

# The race detector slows internal/experiments about sevenfold (~25 s
# plain, ~3 min under -race on 2 vCPUs); slower machines can approach go
# test's default 10 min timeout, so give it headroom.
race:
	$(GO) test -race -timeout 45m ./...

# Run every registered sweep through one freshly built wasched and compare
# the SHA-256 of its stdout with the digests stored in $(SWEEPDIGESTS);
# TestSweepDigestsMatchStored checks the cheap sweeps in every go test.
sweep-digests:
	@rm -rf $(DIGESTDIR)
	$(GO) build -o $(DIGESTDIR)/wasched ./cmd/wasched
	@fail=0; while read -r name want; do \
		case "$$name" in ''|'#'*) continue;; esac; \
		$(DIGESTDIR)/wasched sweep run $$name -seed 1 > $(DIGESTDIR)/$$name.out || exit 1; \
		got=$$(sha256sum < $(DIGESTDIR)/$$name.out | cut -d' ' -f1); \
		if [ "$$got" = "$$want" ]; then echo "sweep $$name: ok"; \
		else echo "sweep $$name: stdout digest $$got, stored $$want"; fail=1; fi; \
	done < $(SWEEPDIGESTS); [ $$fail -eq 0 ]
	@rm -rf $(DIGESTDIR)

# Burst-buffer end-to-end smoke: replay the bundled 10k-job trace with a
# synthetic BB assignment through both BB-aware policies, with every
# invariant check on (per-round checks plus the BB capacity, stage-in
# ordering and drain-attribution validators). Seconds of wall clock, so it
# rides in `make check` alongside the race run.
bbcheck:
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy plan -bb-capacity-gib 64 -bb-fraction 0.3 -checks -quiet
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy bb-io-aware -bb-capacity-gib 64 -bb-fraction 0.3 -checks -quiet

# Token-bucket end-to-end smoke: replay the bundled 10k-job trace through
# both token policies with every invariant check on (per-round checks plus
# the bucket-conservation and borrow-attribution validators). The capacity
# defaults to the corpus fill rate, so every bucket sees contention.
tbfcheck:
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy tbf -checks -quiet
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy tbf-straggler -checks -quiet

# Archive-trace replay benchmark: replay the bundled 10k-job SWF trace
# through all four policies and append the measured jobs/s and allocs/op
# to the BENCH_replay.json trajectory. It fails when allocs/op grows more
# than 10% past the latest entry, or when jobs/s drops more than 35% below
# the latest entry from the same host (CPU model, GOMAXPROCS, GOARCH);
# with no such entry jobs/s is printed but not gated. CI runs it with
# -check-only so the workflow never commits trajectory entries from runner
# hardware.
bench-replay:
	$(GO) run ./cmd/benchreplay -label "make bench-replay"

bench-replay-check:
	$(GO) run ./cmd/benchreplay -check-only

# Full-prototype benchmark: the BenchmarkScheduling scenario (Workload 1,
# adaptive two-group, seeds 1-3 through cluster + pfs + LDMS + SOS +
# analytics + slurm), appended to the BENCH_system.json trajectory. The
# check fails when allocs/op grows more than 10% past the last entry;
# wall time is recorded but not gated.
bench-system:
	$(GO) run ./cmd/benchsystem -label "make bench-system"

bench-system-check:
	$(GO) run ./cmd/benchsystem -check-only

# Go allows one -fuzz target per invocation, so each runs separately.
fuzz:
	$(GO) test ./internal/restrack -run='^$$' -fuzz=FuzzProfile -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/restrack -run='^$$' -fuzz=FuzzTrackers -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzRunRound -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzTwoGroupSplit -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzRunnerMatchesNewRound -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lint/analysis -run='^$$' -fuzz=FuzzParseAllows -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tbf -run='^$$' -fuzz=FuzzRedistribute -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sos -run='^$$' -fuzz=FuzzContainer -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzParseSWF -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/slurmconf -run='^$$' -fuzz=FuzzParseSlurmConf -fuzztime=$(FUZZTIME)

check: vet lint race bbcheck tbfcheck sweep-digests fuzz
