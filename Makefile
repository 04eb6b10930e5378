GO ?= go
FUZZTIME ?= 15s

.PHONY: check fmt vet build test race lint gc-check benchmark-smoke trace-race fuzz-smoke calibrate serve-smoke obs-smoke census

## check: the full CI gate — formatting, vet, build, tests, race, lint,
## compiler-diagnostic gate, and the repository benchmark at toy sizes
check: fmt vet build test race lint gc-check benchmark-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## lint: run the bipievet kernel-invariant suite over every package
lint:
	$(GO) run ./cmd/bipievet ./...

## gc-check: run bipiegc, the compiler-diagnostic gate (//bipie:nobce,
## //bipie:noescape, //bipie:inline against real -m=2/check_bce output).
## Skips itself with a notice when the toolchain differs from the one the
## baseline pins.
gc-check:
	$(GO) run ./cmd/bipiegc -v

## benchmark-smoke: every workload of the repository benchmark
## (BENCHMARK.json), untraced and traced, at toy sizes — answers checked
## against the oracle, printed metric names and units against the
## declaration. Builds into the git-ignored .bench_build/.
benchmark-smoke:
	bash benchmark/run.sh --smoke

## trace-race: the tracing-enabled torture combo and the concurrency tests
## of the tracer/metrics registry, under the race detector (a focused
## subset of `race`)
trace-race:
	$(GO) test -race -count=1 -run 'TortureDifferential|MetricsConcurrentScans' ./internal/engine
	$(GO) test -race -count=1 -run 'Concurrent' ./internal/obs

## fuzz-smoke: run each fuzz target briefly (FUZZTIME per target)
fuzz-smoke:
	$(GO) test ./internal/bitpack -run '^$$' -fuzz FuzzBitpackRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bitpack -run '^$$' -fuzz FuzzPackedCmp -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bitpack -run '^$$' -fuzz FuzzFusedGroups -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz FuzzEncodingRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz FuzzChooseInt -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz FuzzDictBuilder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/agg -run '^$$' -fuzz FuzzMultiAgg -fuzztime $(FUZZTIME)
	$(GO) test ./internal/colstore -run '^$$' -fuzz FuzzReadSegment -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzRLEDomainFilter -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzDictDomainFilter -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzSumExpr -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzPredProgram -fuzztime $(FUZZTIME)

## calibrate: fit the cost model on this machine and replace the checked-in
## profile every bipie process plans with. Run it on the benchmark machine
## while it is quiet, then commit the file. The fit goes to a temp file
## first, so a failed one leaves the checked-in profile as it was.
calibrate:
	@p=internal/costmodel/profile.json && tmp=$$(mktemp $$p.XXXXXX) && \
	if $(GO) run ./cmd/bipie-bench calibrate > $$tmp; then \
		chmod 644 $$tmp && mv $$tmp $$p && echo "wrote $$p"; \
	else rm -f $$tmp; exit 1; fi

## serve-smoke: start an in-process query server over a generated lineitem
## table, fire a short concurrent mixed burst at it over real HTTP, and
## shut down gracefully. bipie-bench itself exits non-zero when no query
## succeeds, any reply errors (5xx included), or shutdown fails to drain.
serve-smoke:
	$(GO) run ./cmd/bipie-bench serve -rows 200000 -c 128 -duration 2s

## obs-smoke: the serving smoke plus the observability gate — scrape
## /metrics in both text formats, /debug/requests, and a 1s CPU profile
## from /debug/pprof (fail on any non-200 or empty journal), then the
## journal/traceability/high-concurrency tests under the race detector
obs-smoke:
	$(GO) run ./cmd/bipie-bench serve -rows 200000 -c 64 -duration 2s -obs-check
	$(GO) test -race -count=1 -run 'Journal|EndToEndTraceability|HandlerModeHighConcurrency' ./internal/obs ./internal/serve ./internal/loadgen

## census: the instantiation census — symbols and text bytes of each
## per-lane kernel family in bipie-serve (go tool nm -size), then the text
## total; informational (EXPERIMENTS.md "Instantiation census" has the
## before/after and which workload reaches each shape). A family whose loops
## were inlined is counted by the symbol that holds them.
CENSUS_BIN ?= $(or $(TMPDIR),/tmp)/bipie-serve.census
CENSUS_FAMILIES = \
	'expr evalVV/evalVC operator loops=^bipie/internal/expr\.eval(VV|VC)\[' \
	'expr dispatch (SumProgram.Eval)=^bipie/internal/expr\.\(\*SumProgram\)\.Eval$$' \
	'agg accumulate*/addRows* walks=^bipie/internal/agg\.(accumulate|addRows)' \
	'agg addProducts=^bipie/internal/agg\.\(\*MultiLayout\)\.addProducts$$' \
	'agg buildCarrier (packFields, read walk)=^bipie/internal/agg\.buildCarrier$$' \
	'agg rowAtATimeTyped=^bipie/internal/agg\.rowAtATimeTyped\[' \
	'agg reduceSum=^bipie/internal/agg\.reduceSum\[' \
	'agg ScalarMin/Max (minTyped/maxTyped)=^bipie/internal/agg\.Scalar(Min|Max)$$' \
	'agg InRegisterSum8/16/32=^bipie/internal/agg\.InRegisterSum(8|16|32)$$' \
	'sel CmpMaskWords=^bipie/internal/sel\.CmpMaskWords\[' \
	'bitpack unpackBody*=^bipie/internal/bitpack\.unpackBody' \
	'bitpack cmpBody*=^bipie/internal/bitpack\.cmpBody' \
	'bitpack groupsBody (fused)=^bipie/internal/bitpack\.groupsBody$$'
census:
	@$(GO) build -o $(CENSUS_BIN) ./cmd/bipie-serve
	@$(GO) tool nm -size $(CENSUS_BIN) > $(CENSUS_BIN).nm
	@for f in $(CENSUS_FAMILIES); do \
		name="$${f%%=*}" re="$${f#*=}" awk '$$3 ~ /^[Tt]$$/ && $$4 ~ ENVIRON["re"] { n++; b += $$2 } \
			END { printf "%-40s %4d symbols %8d bytes\n", ENVIRON["name"], n, b }' $(CENSUS_BIN).nm; \
	done
	@awk '$$3 ~ /^[Tt]$$/ { b += $$2 } END { printf "%-40s %4s         %8d bytes\n", "bipie-serve text symbols", "", b }' $(CENSUS_BIN).nm
