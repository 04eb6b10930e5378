GO ?= go
FUZZTIME ?= 15s

.PHONY: check fmt vet build test race lint gc-check benchmark-smoke trace-race fuzz-smoke calibrate census layout layout-diff

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

## trace-race: the tracing-enabled torture combo, the concurrency tests of
## the tracer/metrics registry, and the request journal, end-to-end
## traceability and >=1000-in-flight serving tests, a scan panic contained
## in the engine and answered 500 by the server, the morsel-driven scan over
## 1–5 segments at 1–8 workers traced and not, and concurrent table
## round trips through the write path's recycled buffers and its per-column
## fan-out, under the race detector (a focused subset of `race`)
trace-race:
	$(GO) test -race -count=1 -run 'TortureDifferential|MetricsConcurrentScans|ScanPanicIsContained|RunTraced' ./internal/engine
	$(GO) test -race -count=1 -run 'ConcurrentRoundTrips|RecycledBuffers|ForEachColumn|SealSameAcrossProcs|MutableSnapshotMidAppend' ./internal/table
	$(GO) test -race -count=1 -run 'Concurrent' ./internal/obs
	$(GO) test -race -count=1 -run 'Journal|EndToEndTraceability|HighConcurrency|ScanPanicAnswers500' ./internal/obs ./internal/serve

## fuzz-smoke: run each fuzz target briefly (FUZZTIME per target)
fuzz-smoke:
	$(GO) test ./internal/bitpack -run '^$$' -fuzz FuzzBitpackRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bitpack -run '^$$' -fuzz FuzzPackedCmp -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bitpack -run '^$$' -fuzz FuzzFusedGroups -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz FuzzEncodingRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz FuzzChooseInt -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz FuzzDictBuilder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/agg -run '^$$' -fuzz FuzzMultiAgg -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sel -run '^$$' -fuzz FuzzSelection -fuzztime $(FUZZTIME)
	$(GO) test ./internal/colstore -run '^$$' -fuzz FuzzReadSegment -fuzztime $(FUZZTIME)
	$(GO) test ./internal/table -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzLoadChecksummed -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
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
	'agg buildCarrier (packFields, read walk)=^bipie/internal/agg\.buildCarrier$$' \
	'agg rowAtATimeTyped=^bipie/internal/agg\.rowAtATimeTyped\[' \
	'agg reduceSum=^bipie/internal/agg\.reduceSum\[' \
	'agg reduceSumMasked=^bipie/internal/agg\.reduceSumMasked\[' \
	'agg ScalarMin/Max (minTyped/maxTyped)=^bipie/internal/agg\.Scalar(Min|Max)$$' \
	'agg InRegisterSum8/16/32=^bipie/internal/agg\.InRegisterSum(8|16|32)$$' \
	'sel CmpMaskWords=^bipie/internal/sel\.CmpMaskWords\[' \
	'sel gatherSumBody (gathered reduce)=^bipie/internal/sel\.gatherSumBody$$' \
	'bitpack unpackBody*=^bipie/internal/bitpack\.unpackBody' \
	'bitpack cmpBody* (both tallies)=^bipie/internal/bitpack\.cmpBody' \
	'bitpack cmpEvenOdd16 (12-bit compare)=^bipie/internal/bitpack\.cmpEvenOdd16$$' \
	'bitpack groupsBody (fused)=^bipie/internal/bitpack\.groupsBody$$'
census:
	@$(GO) build -o $(CENSUS_BIN) ./cmd/bipie-serve
	@$(GO) tool nm -size $(CENSUS_BIN) > $(CENSUS_BIN).nm
	@for f in $(CENSUS_FAMILIES); do \
		name="$${f%%=*}" re="$${f#*=}" awk '$$3 ~ /^[Tt]$$/ && $$4 ~ ENVIRON["re"] { n++; b += $$2 } \
			END { printf "%-40s %4d symbols %8d bytes\n", ENVIRON["name"], n, b }' $(CENSUS_BIN).nm; \
	done
	@awk '$$3 ~ /^[Tt]$$/ { b += $$2 } END { printf "%-40s %4s         %8d bytes\n", "bipie-serve text symbols", "", b }' $(CENSUS_BIN).nm

## layout: where the linker put the scan path's code — `symbol addr%64` for
## every text symbol of bitpack, sel, agg, expr, engine and encoding in the
## benchmark binary (built into TMPDIR, not under benchmark/), sorted, then
## one `sha256 <pkg> <digest>` line per package and the SHA-256 of the whole
## list. The speed of filter_scan and serve_mixed follows the kernels'
## alignment, so a change that moves them shows as a new digest, and the
## package lines say whose; informational (EXPERIMENTS.md "Code layout").
LAYOUT_BIN ?= $(or $(TMPDIR),/tmp)/bipie-benchmark.layout
LAYOUT_PKGS = bitpack|sel|agg|expr|engine|encoding
# layout_list prints `symbol addr%64` for the scan path's text symbols of
# the binary $(1), sorted.
define layout_list
$(GO) tool nm $(1) | LAYOUT_PKGS='$(LAYOUT_PKGS)' awk ' \
	$$2 ~ /^[Tt]$$/ { name = $$0; sub(/^ *[0-9a-fA-F]+ +[Tt] +/, "", name); \
		if (name !~ ("^bipie/internal/(" ENVIRON["LAYOUT_PKGS"] ")\\.")) next; \
		h = tolower(substr($$1, length($$1) - 1)); \
		v = 16 * (index("0123456789abcdef", substr(h, 1, 1)) - 1) + index("0123456789abcdef", substr(h, 2, 1)) - 1; \
		print name, v % 64 }' | LC_ALL=C sort
endef
# pkg_digest prints the SHA-256 of package $(2)'s lines of the list $(1).
pkg_digest = $$(grep "^bipie/internal/$(2)\." $(1) | sha256sum | cut -d' ' -f1)
layout:
	@$(GO) build -o $(LAYOUT_BIN) ./benchmark
	@$(call layout_list,$(LAYOUT_BIN)) > $(LAYOUT_BIN).txt
	@cat $(LAYOUT_BIN).txt
	@for p in $$(echo '$(LAYOUT_PKGS)' | tr '|' ' '); do \
		echo "sha256 $$p $(call pkg_digest,$(LAYOUT_BIN).txt,$$p)"; \
	done
	@echo "sha256 $$(sha256sum < $(LAYOUT_BIN).txt | cut -d' ' -f1)"

## layout-diff BASE=<checkout>: `make layout` for this tree and for another
## checkout of the repository (a `git clone` of the parent, say), compared:
## each scan-path symbol whose addr%64 moved, as `symbol base -> this`
## (`+ symbol` only here, `- symbol` only in BASE), then one
## `sha256 <pkg> <base digest> <this digest> same|moved` line per package.
layout-diff:
	@test -n "$(BASE)" || { echo "usage: make layout-diff BASE=<checkout>" >&2; exit 2; }
	@$(GO) build -o $(LAYOUT_BIN) ./benchmark
	@$(call layout_list,$(LAYOUT_BIN)) > $(LAYOUT_BIN).txt
	@cd $(BASE) && $(GO) build -o $(LAYOUT_BIN).base ./benchmark
	@$(call layout_list,$(LAYOUT_BIN).base) > $(LAYOUT_BIN).base.txt
	@awk 'NR == FNR { base[$$1] = $$2; next } \
		{ seen[$$1] = 1; if (!($$1 in base)) print "+", $$0; else if (base[$$1] != $$2) print $$1, base[$$1], "->", $$2 } \
		END { for (s in base) if (!(s in seen)) print "-", s, base[s] }' $(LAYOUT_BIN).base.txt $(LAYOUT_BIN).txt
	@for p in $$(echo '$(LAYOUT_PKGS)' | tr '|' ' '); do \
		b=$(call pkg_digest,$(LAYOUT_BIN).base.txt,$$p) c=$(call pkg_digest,$(LAYOUT_BIN).txt,$$p); \
		echo "sha256 $$p $$b $$c $$([ "$$b" = "$$c" ] && echo same || echo moved)"; \
	done
