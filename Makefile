GO ?= go

.PHONY: build test test-alloc bench lint sweep campaign campaign-ccr explore check-docs validate-scenarios

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Allocation budgets skip under -race (the detector itself allocates), so
# they get a dedicated non-race invocation.
test-alloc:
	$(GO) test -run Alloc ./internal/sim ./internal/simnet ./internal/mpi ./internal/replication ./internal/store ./internal/jobstream ./internal/experiments ./internal/kernels ./internal/campaign

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

lint:
	$(GO) vet ./...
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:" $$files; exit 1; \
	fi

sweep:
	$(GO) run ./cmd/sweep -figures all

campaign:
	$(GO) run ./cmd/sweep -mode campaign -app gtc -procs 32 -mtbf 0.01,0.1,1

campaign-ccr:
	$(GO) run ./cmd/sweep -spec scenarios/campaign-ccr-vs-replication.json -mode campaign

# Adaptive exploration: CI-driven trial refinement plus crossover bisection
# and optimal-tau search over the checked-in coarse grid.
explore:
	$(GO) run ./cmd/sweep -spec scenarios/explore-crossover.json -mode explore

validate-scenarios:
	@for f in scenarios/*.json; do \
		$(GO) run ./cmd/sweep -spec $$f -validate || exit 1; \
	done

# Every *.md file doc.go and README.md name, and every cmd/<name> and
# examples/<name> directory the docs name, must exist. Brace lists such as
# cmd/{sweep,hpccg} name each of their entries. Every documented
# `go run ./cmd/sweep` command built from -app flags must pass -validate,
# which expands and binds its points without simulating: backslash
# continuations are joined, and comments and redirections dropped.
DOCS = README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md

check-docs:
	@missing=0; for f in $$(grep -ohE '[A-Z]+\.md' doc.go README.md | sort -u); do \
		if [ ! -f "$$f" ]; then echo "missing $$f (referenced from doc.go/README.md)"; missing=1; fi; \
	done; \
	for d in $$(grep -ohE '(cmd|examples)/(\{[a-z0-9_,-]+\}|[a-z0-9_-]+)' $(DOCS) | \
		awk -F/ '{ n = split($$2, e, /[{},]/); for (i = 1; i <= n; i++) if (e[i] != "") print $$1 "/" e[i] }' | sort -u); do \
		if [ ! -d "$$d" ]; then echo "missing $$d (referenced from $(DOCS))"; missing=1; fi; \
	done; \
	tmp=$$(mktemp -d); $(GO) build -o $$tmp/sweep ./cmd/sweep || exit 1; \
	awk '/\\$$/ { sub(/\\$$/, ""); line = line $$0; next } { print line $$0; line = "" }' $(DOCS) | \
		grep -oE 'go run \./cmd/sweep [^#>|`]*' | grep -e ' -app ' | sort -u > $$tmp/cmds; \
	while read -r cmd; do \
		if ! $$tmp/sweep $${cmd#go run ./cmd/sweep } -validate > /dev/null; then \
			echo "documented command fails -validate: $$cmd"; missing=1; \
		fi; \
	done < $$tmp/cmds; rm -rf $$tmp; exit $$missing
