# Convenience entry points mirroring the CI jobs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint nogob bench perfbench

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full-module race pass; -count=1 defeats the cache so seeded concurrency
# tests explore fresh schedules every run.
race:
	$(GO) test -race -count=1 -timeout 20m ./...

# go vet, the analyzers' own tests under the race detector (the CI lint
# job's self-check), then the project invariant analyzers (cmd/deltavet).
lint: nogob
	$(GO) vet ./...
	$(GO) test -race -count=1 ./internal/analysis/... ./cmd/deltavet/
	$(GO) run ./cmd/deltavet ./...

# internal/frame is the module's one serialisation: no package or test may
# import encoding/gob (CI's codec-compat job runs this too).
nogob:
	@if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... \
		| grep -w 'encoding/gob'; then \
		echo "encoding/gob is imported above; persist through internal/frame instead"; exit 1; \
	fi

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# perfbench/ is its own module (the repository benchmark), so ./... above
# never reaches it; build, vet and test it against this tree's packages.
perfbench:
	cd perfbench && $(GO) build -o /dev/null . && $(GO) vet . && $(GO) test ./...
