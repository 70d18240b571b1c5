# Convenience entry points mirroring the CI jobs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint bench

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
lint:
	$(GO) vet ./...
	$(GO) test -race -count=1 ./internal/analysis/... ./cmd/deltavet/
	$(GO) run ./cmd/deltavet ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
