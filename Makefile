# Convenience targets; `make check` is the tier-1 gate (build + tests).

.PHONY: all build test check check-fault check-validate check-par check-cache \
  check-journal check-serve check-servert check-spool check-compact \
  check-fleet check-bench perf-ab clean

all: build

build:
	dune build

test:
	dune runtest

# Fault-injection suite at three different fault-plan seeds (the suite
# derives its plans from FAULT_SEED, so each run exercises different
# injected fault sequences).
check-fault: build
	FAULT_SEED=1 dune exec test/test_main.exe -- test faults
	FAULT_SEED=7 dune exec test/test_main.exe -- test faults
	FAULT_SEED=23 dune exec test/test_main.exe -- test faults

# Static TIR sanitizer over every Table-2 workload x template at two
# different config-sampling seeds (the suite samples template configs
# from VALIDATE_SEED, so each run validates different lowered programs).
check-validate: build
	VALIDATE_SEED=3 dune exec test/test_main.exe -- test validate
	VALIDATE_SEED=11 dune exec test/test_main.exe -- test validate

# Multicore determinism gate: the par test suite, plus byte-identical
# tvmc tuning logs and flight-recorder journals at -j1 vs -j8 for two
# Table-2 workloads (one of them on a 20% faulty pool) and identical
# tuning logs at 1 vs 4 devices for the faulty one (fault draws are
# keyed by job, not device), plus the partune throughput comparison at
# -j1 and -j4 (metrics land in _build/, not the committed baseline).
check-par: build
	dune exec test/test_main.exe -- test par
	mkdir -p _build/check-par
	dune exec bin/tvmc.exe -- tune C7 --trials 40 --seed 5 --devices 4 \
	  -j 1 --tune-log _build/check-par/c7_j1.log \
	  --journal-out _build/check-par/c7_j1.jsonl
	dune exec bin/tvmc.exe -- tune C7 --trials 40 --seed 5 --devices 4 \
	  -j 8 --tune-log _build/check-par/c7_j8.log \
	  --journal-out _build/check-par/c7_j8.jsonl
	cmp _build/check-par/c7_j1.log _build/check-par/c7_j8.log
	cmp _build/check-par/c7_j1.jsonl _build/check-par/c7_j8.jsonl
	dune exec bin/tvmc.exe -- tune D1 --trials 40 --seed 5 --devices 4 \
	  --fault-rate 0.2 -j 1 --tune-log _build/check-par/d1_j1.log \
	  --journal-out _build/check-par/d1_j1.jsonl
	dune exec bin/tvmc.exe -- tune D1 --trials 40 --seed 5 --devices 4 \
	  --fault-rate 0.2 -j 8 --tune-log _build/check-par/d1_j8.log \
	  --journal-out _build/check-par/d1_j8.jsonl
	cmp _build/check-par/d1_j1.log _build/check-par/d1_j8.log
	cmp _build/check-par/d1_j1.jsonl _build/check-par/d1_j8.jsonl
	dune exec bin/tvmc.exe -- tune D1 --trials 40 --seed 5 --devices 1 \
	  --fault-rate 0.2 -j 4 --tune-log _build/check-par/d1_dev1.log
	cmp _build/check-par/d1_j1.log _build/check-par/d1_dev1.log
	dune exec bench/main.exe -- --quick -j 4 --json _build/check-par/obs.json partune

# Feature-memo gate: the cache suite, plus a dqn compile at -j 1 vs
# -j 4. Each kernel's two half-budget searches share one feature memo
# that SA chains read in parallel and that is filled in chain order;
# the kernel table (minus its wall-time line) and the journal must be
# byte-identical, so the memo may only change how much work tuning
# repeats, never what it picks.
check-cache: build
	dune exec test/test_main.exe -- test cache
	mkdir -p _build/check-cache
	dune exec bin/tvmc.exe -- compile dqn --trials 16 -j 1 \
	  --journal-out _build/check-cache/dqn_j1.jsonl > _build/check-cache/dqn_j1.out
	dune exec bin/tvmc.exe -- compile dqn --trials 16 -j 4 \
	  --journal-out _build/check-cache/dqn_j4.jsonl > _build/check-cache/dqn_j4.out
	grep -v '^compiled ' _build/check-cache/dqn_j1.out > _build/check-cache/dqn_j1.txt
	grep -v '^compiled ' _build/check-cache/dqn_j4.out > _build/check-cache/dqn_j4.txt
	cmp _build/check-cache/dqn_j1.txt _build/check-cache/dqn_j4.txt
	cmp _build/check-cache/dqn_j1.jsonl _build/check-cache/dqn_j4.jsonl

# Flight-recorder gate: `tvmc report` must identify a device injected
# as a straggler (dev 2 runs 12x slower than its three peers on an
# otherwise clean pool, so it completes only a handful of jobs, each
# far costlier than the median). The journal's -j1 vs -j8
# byte-identity is checked by check-par.
check-journal: build
	mkdir -p _build/check-journal
	dune exec bin/tvmc.exe -- tune C7 --trials 60 --seed 5 --devices 4 \
	  --fault-rate 0 --straggler 2 --timeout-ms 1000 -j 4 \
	  --journal-out _build/check-journal/straggler.jsonl
	dune exec bin/tvmc.exe -- report _build/check-journal/straggler.jsonl \
	  | tee _build/check-journal/straggler.report
	grep -q "straggler dev 2" _build/check-journal/straggler.report

# tvmd service gate: a three-tenant jobs file through `tvmc serve`.
# One uninterrupted cold run, then a kill/restart pair (--max-jobs 2
# simulates the daemon dying after two jobs; the restart resumes from
# the durable store), then a fully warm rerun — all three results
# files must be byte-identical, and the warm rerun must execute
# nothing live (everything answered from the store). Explicit -j 2 in
# the specs keeps the jobs file machine-independent.
check-serve: build
	mkdir -p _build/check-serve
	dune exec bin/tvmc.exe -- submit tune C1 --trials 24 --seed 5 -j 2 \
	  --tenant alpha --weight 2 > _build/check-serve/jobs.txt
	dune exec bin/tvmc.exe -- submit tune C1 --trials 24 --seed 5 -j 2 \
	  --tenant alpha --weight 2 --at 0.5 >> _build/check-serve/jobs.txt
	dune exec bin/tvmc.exe -- submit tune C2 --trials 24 --seed 5 -j 2 \
	  --tenant beta >> _build/check-serve/jobs.txt
	dune exec bin/tvmc.exe -- submit tune D1 --trials 24 --seed 5 -j 2 \
	  --tenant gamma --priority 1 >> _build/check-serve/jobs.txt
	rm -f _build/check-serve/s1 _build/check-serve/s2
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-serve/jobs.txt \
	  --store _build/check-serve/s1 --results _build/check-serve/r_full
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-serve/jobs.txt \
	  --store _build/check-serve/s2 --max-jobs 2 \
	  --results _build/check-serve/r_partial
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-serve/jobs.txt \
	  --store _build/check-serve/s2 --results _build/check-serve/r_resumed
	cmp _build/check-serve/r_full _build/check-serve/r_resumed
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-serve/jobs.txt \
	  --store _build/check-serve/s1 --results _build/check-serve/r_warm \
	  2> _build/check-serve/warm.stderr
	cmp _build/check-serve/r_full _build/check-serve/r_warm
	grep -q "4 restored from store" _build/check-serve/warm.stderr

# Serving-executor gate: a deterministic trace from `tvmc traffic`
# served by `tvmc serve-rt` at two model-load lane counts — the
# results files and the serving journals must be byte-identical and
# every request must meet its 50 ms SLO (--require-slo exits nonzero
# on any miss), then the serving journal must round-trip through the
# `tvmc report` digest.
check-servert: build
	mkdir -p _build/check-servert
	dune exec bin/tvmc.exe -- traffic --seed 5 --horizon 0.2 --tenants 8 \
	  --rate 1200 --slo-ms 50 --out _build/check-servert/trace.txt
	dune exec bin/tvmc.exe -- serve-rt --trace _build/check-servert/trace.txt \
	  -j 1 --require-slo --results _build/check-servert/r_j1 \
	  --journal-out _build/check-servert/journal.jsonl
	dune exec bin/tvmc.exe -- serve-rt --trace _build/check-servert/trace.txt \
	  -j 4 --require-slo --results _build/check-servert/r_j4 \
	  --journal-out _build/check-servert/journal_j4.jsonl
	cmp _build/check-servert/r_j1 _build/check-servert/r_j4
	cmp _build/check-servert/journal.jsonl _build/check-servert/journal_j4.jsonl
	dune exec bin/tvmc.exe -- report _build/check-servert/journal.jsonl \
	  | tee _build/check-servert/digest.txt
	grep -q "per-model latency" _build/check-servert/digest.txt

# Streaming-spool gate: the same envelopes served from a spool
# directory (stop file pre-armed, so the daemon drains one batch and
# exits) and from a one-shot jobs file must produce byte-identical
# results, and consumed envelopes must land in the archive.
check-spool: build
	rm -rf _build/check-spool
	mkdir -p _build/check-spool/spool
	dune exec bin/tvmc.exe -- submit tune C1 --trials 8 -j 2 \
	  --tenant alpha --weight 2 > _build/check-spool/spool/00-alpha.req
	dune exec bin/tvmc.exe -- submit tune C2 --trials 8 -j 2 \
	  --tenant beta --at 0.1 > _build/check-spool/spool/01-beta.req
	cat _build/check-spool/spool/*.req > _build/check-spool/jobs.txt
	touch _build/check-spool/spool/stop
	dune exec bin/tvmc.exe -- serve --spool _build/check-spool/spool \
	  --results _build/check-spool/r_spool
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-spool/jobs.txt \
	  --results _build/check-spool/r_file
	cmp _build/check-spool/r_spool _build/check-spool/r_file
	test -f _build/check-spool/spool/archive/00-alpha.req
	test -f _build/check-spool/spool/archive/01-beta.req

# Compaction gate: a restart-churned store (cold run + three warm
# restarts, each refreshing every done record) must shrink by at least
# 40% under `tvmc store compact`, and a warm run over the compacted
# store must reproduce the cold results byte for byte.
check-compact: build
	rm -rf _build/check-compact
	mkdir -p _build/check-compact
	dune exec bin/tvmc.exe -- submit compile dqn --trials 2 -j 2 \
	  --tenant alpha > _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- submit profile dqn --trials 0 -j 2 \
	  --tenant alpha --at 0.1 >> _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- submit profile dcgan --trials 0 -j 2 \
	  --tenant beta >> _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- submit profile lstm --trials 0 -j 2 \
	  --tenant gamma --at 0.2 >> _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- submit profile dqn --trials 0 -j 2 \
	  --tenant alpha --at 0.3 >> _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- submit profile dcgan --trials 0 -j 2 \
	  --tenant beta --at 0.4 >> _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- submit profile lstm --trials 0 -j 2 \
	  --tenant gamma --at 0.5 >> _build/check-compact/jobs.txt
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-compact/jobs.txt \
	  --store _build/check-compact/st --results _build/check-compact/r_cold
	for i in 1 2 3; do \
	  dune exec bin/tvmc.exe -- serve \
	    --jobs-file _build/check-compact/jobs.txt \
	    --store _build/check-compact/st \
	    --results _build/check-compact/r_warm || exit 1; \
	done
	before=$$(wc -c < _build/check-compact/st); \
	dune exec bin/tvmc.exe -- store compact _build/check-compact/st; \
	after=$$(wc -c < _build/check-compact/st); \
	echo "store: $$before -> $$after bytes"; \
	test $$((after * 10)) -le $$((before * 6))
	dune exec bin/tvmc.exe -- serve --jobs-file _build/check-compact/jobs.txt \
	  --store _build/check-compact/st \
	  --results _build/check-compact/r_compacted
	cmp _build/check-compact/r_cold _build/check-compact/r_compacted

# Measurement-fleet gate: the fleet test suite, then tvmc on a
# 1000-device 20%-faulty fleet. The tuning log AND the journal must be
# byte-identical at -j1 vs -j8; the log must additionally be
# byte-identical with a 12x straggler on device 0 (placement-invariant
# results: the straggler moves jobs between devices and stretches the
# makespan, and only the journal's placement fields may differ).
check-fleet: build
	dune exec test/test_main.exe -- test fleet
	mkdir -p _build/check-fleet
	dune exec bin/tvmc.exe -- tune C7 --trials 40 --seed 5 --fleet 1000 \
	  --fault-rate 0.2 -j 1 \
	  --tune-log _build/check-fleet/j1.log \
	  --journal-out _build/check-fleet/j1.jsonl
	dune exec bin/tvmc.exe -- tune C7 --trials 40 --seed 5 --fleet 1000 \
	  --fault-rate 0.2 -j 8 \
	  --tune-log _build/check-fleet/j8.log \
	  --journal-out _build/check-fleet/j8.jsonl
	cmp _build/check-fleet/j1.log _build/check-fleet/j8.log
	cmp _build/check-fleet/j1.jsonl _build/check-fleet/j8.jsonl
	dune exec bin/tvmc.exe -- tune C7 --trials 40 --seed 5 --fleet 1000 \
	  --straggler 0 --fault-rate 0.2 -j 4 \
	  --tune-log _build/check-fleet/straggler.log
	cmp _build/check-fleet/j1.log _build/check-fleet/straggler.log
	dune exec bench/main.exe -- --quick --json _build/check-fleet/obs.json \
	  fleet

# Benchmark regression gate: `bench/main.exe --check` runs the gated
# experiments at --quick -j 4 and compares their deterministic values
# against exact pins, and two wall-clock values against fixed bounds,
# all kept in bench/main.ml (exits nonzero on any miss or any
# experiment that raised).
check-bench: build
	dune exec bench/main.exe -- --check

check: build test check-fault check-validate check-par check-cache \
  check-journal check-serve check-servert check-spool check-compact \
  check-fleet check-bench

# A/B of the repository benchmark, a base revision against the working
# tree: PAIRS alternating perfbench runs of WORKLOAD per side, then each
# end-to-end metric's median per side and how many pairs the working
# tree won. The base is exported and built under _build/perf-ab/.
BASE ?= HEAD
PAIRS ?= 10
perf-ab:
	python3 bench/perf_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

clean:
	dune clean
