package main

import (
	"context"
	"strings"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

var findfixWorkload = &workload{
	name:     "tcpip-findfix",
	setup:    guestSetup,
	iterate:  findfix,
	endToEnd: findfixMetrics,
}

var fuzzWorkload = &workload{
	name:             "tcpip-fuzz",
	seedPerIteration: true,
	setup:            guestSetup,
	iterate:          hybridFuzz,
	endToEnd:         commonMetrics,
}

// guestSetup is the set-up a cte invocation pays before its first
// engine call: build and boot the unpatched tcpip guest.
func guestSetup(_ context.Context, sz sizes) (time.Duration, error) {
	start := time.Now()
	_, _, err := guest.NewCore(smt.NewBuilder(), guest.TCPIPProgram(0, sz.PktMax))
	return time.Since(start), err
}

// newCore builds and boots p. Traced iterations also time guest.Build
// on its own first, so boot time (guest.NewCore beyond the build) can
// be separated; untraced iterations make only the NewCore call a user
// makes.
func (it *iteration) newCore(b *smt.Builder, p guest.Program) (*iss.Core, *relf.File, error) {
	if it.traced {
		id := it.spans.start("guest.Build", it.root)
		_, err := guest.Build(p)
		it.spans.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	id := it.spans.start("guest.NewCore", it.root)
	defer it.spans.end(id)
	return guest.NewCore(b, p)
}

// runSession runs one cte.Session under a span.
func (it *iteration) runSession(ctx context.Context, core *iss.Core, cfg cte.Config) (*cte.Report, time.Duration) {
	cfg.Obs = it.obs
	id := it.spans.start("cte.Session.Run", it.root)
	start := time.Now()
	rep := cte.NewSession(core, cfg).Run(ctx)
	d := time.Since(start)
	it.spans.end(id)
	it.check(!strings.HasPrefix(rep.Stopped, "config"), "session stopped: %s", rep.Stopped)
	return rep, d
}

// stagePathGuard bounds each find-fix stage; the deepest stage needs
// about 150 paths, so a stage that reaches it has missed its bug.
const stagePathGuard = 20_000

// findfix is the paper's §4.2.3 workflow on tcpip: each stage explores
// with stop-on-error, classifies its finding and patches that bug for
// the next stage; a final stage explores the fully patched guest
// exhaustively. Every stage is a fresh invocation: new smt.Builder, new
// guest build, empty query cache.
func findfix(ctx context.Context, sz sizes, it *iteration) {
	fixed := uint(0)
	found := map[int]bool{}
	var first time.Time
	for stage := 0; stage < sz.FindStages; stage++ {
		b := smt.NewBuilder()
		t := time.Now()
		core, elf, err := it.newCore(b, guest.TCPIPProgram(fixed, sz.PktMax))
		if stage == 0 {
			it.setup, first = time.Since(t), time.Now()
		}
		if !it.check(err == nil, "stage %d build: %v", stage+1, err) {
			return
		}
		rep, _ := it.runSession(ctx, core, concolicConfig(b, it.seed, true, stagePathGuard))
		it.tally(rep)
		if !it.check(len(rep.Findings) > 0, "stage %d: no finding in %d paths (%s)", stage+1, rep.Paths, rep.Stopped) {
			return
		}
		f := rep.Findings[0]
		bug := guest.Classify("tcpip", elf, f.Err.Kind, f.Err.PC, fixed)
		if !it.check(bug >= 1 && bug <= 6 && !found[bug], "stage %d: finding %v classifies to bug %d (found so far %v)", stage+1, f.Err, bug, found) {
			return
		}
		found[bug] = true
		fixed |= 1 << (bug - 1)
	}
	it.find = time.Since(first)
	if !it.check(len(found) == 6, "find-fix found %d of 6 seeded bugs", len(found)) {
		it.main = it.find
		return
	}

	b := smt.NewBuilder()
	core, _, err := it.newCore(b, guest.TCPIPProgram(fixed, sz.PktMax))
	if !it.check(err == nil, "sweep build: %v", err) {
		return
	}
	rep, d := it.runSession(ctx, core, concolicConfig(b, it.seed, false, 0))
	it.tally(rep)
	it.check(rep.Exhausted && len(rep.Findings) == 0, "patched sweep: exhausted=%v findings=%d (%s)",
		rep.Exhausted, len(rep.Findings), rep.Stopped)
	it.sweep, it.sweepPaths = d, rep.Paths
	it.main = time.Since(first)
	it.runs = it.count.Paths
}

// concolicConfig is the cte CLI's default concolic configuration: one
// worker, fork on, a fresh query cache.
func concolicConfig(b *smt.Builder, seed int64, stopOnError bool, maxPaths int) cte.Config {
	return cte.Config{
		Workers:     1,
		Seed:        seed,
		StopOnError: stopOnError,
		Budget:      cte.Budget{MaxPaths: maxPaths},
		Cache:       cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
		Fork:        cte.ForkConfig{Enabled: true, MinPrefix: 2000},
	}
}

// tally adds a concolic report to the iteration's counts.
func (it *iteration) tally(rep *cte.Report) {
	it.count.Paths += rep.Paths
	it.count.Queries += rep.Queries
	it.count.Instr += rep.TotalInstr
}

// hybridFuzz runs hybrid mode on the unpatched guest with stop-on-error
// off, to the engine's dry stop or the exec budget, and classifies
// every finding.
func hybridFuzz(ctx context.Context, sz sizes, it *iteration) {
	b := smt.NewBuilder()
	t := time.Now()
	core, elf, err := it.newCore(b, guest.TCPIPProgram(0, sz.PktMax))
	it.setup = time.Since(t)
	if !it.check(err == nil, "build: %v", err) {
		return
	}
	rep, d := it.runSession(ctx, core, cte.Config{
		Mode:    cte.ModeHybrid,
		Workers: 1,
		Seed:    it.seed,
		Budget:  cte.Budget{MaxExecs: sz.FuzzExecs, MaxInstrPerRun: 2_000_000},
		Cache:   cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
		// The hybrid find-fix experiment's pacing (EXPERIMENTS.md).
		Fuzz: cte.FuzzConfig{Batch: 200, StallExecs: 200},
	})
	it.main = d
	it.check(rep.Stopped == "dry" || rep.Stopped == "exec-budget", "fuzz stopped: %s", rep.Stopped)
	if !it.check(rep.Fuzz != nil, "hybrid report has no fuzz section") {
		return
	}
	for _, f := range rep.Findings {
		bug := guest.Classify("tcpip", elf, f.Err.Kind, f.Err.PC, 0)
		it.check(bug >= 1 && bug <= 6, "finding %v classifies to no seeded bug", f.Err)
	}
	it.count = counts{
		Paths:   rep.Paths,
		Queries: rep.Queries,
		// Concrete executions plus concolic replays: everything the ISS
		// retired (the iss.instr counter).
		Instr: rep.Fuzz.TotalInstr + rep.Fuzz.ReplayedInstrs,
		Execs: rep.Fuzz.Execs,
		Edges: rep.Fuzz.Edges,
	}
	it.runs = int(rep.Fuzz.Execs)
}

// findfixMetrics overrides the generic readings of findfix_s and
// sweep_paths_per_s with this workload's own (README.md "End-to-end
// metrics").
func findfixMetrics(its []*iteration) map[string]metric {
	m := commonMetrics(its)
	m["findfix_s"] = metric{medianOf(its, func(it *iteration) float64 { return it.find.Seconds() }), "s"}
	m["sweep_paths_per_s"] = metric{medianOf(its, func(it *iteration) float64 {
		return float64(it.sweepPaths) / it.sweep.Seconds()
	}), "paths/s"}
	return m
}

// commonMetrics reads every workload's main phase the same way: time
// to the verdict, guest executions per second (a path or a concrete
// exec is one execution) and simulation speed. On its home workload
// each is the metric's own definition.
func commonMetrics(its []*iteration) map[string]metric {
	rate := medianOf(its, func(it *iteration) float64 { return float64(it.runs) / it.main.Seconds() })
	return map[string]metric{
		"findfix_s":            {medianOf(its, func(it *iteration) float64 { return it.main.Seconds() }), "s"},
		"sweep_paths_per_s":    {rate, "paths/s"},
		"fuzz_execs_per_s":     {rate, "execs/s"},
		"campaign_paths_per_s": {rate, "paths/s"},
		"fuzz_mips": {medianOf(its, func(it *iteration) float64 {
			return float64(it.count.Instr) / it.main.Seconds() / 1e6
		}), "Minstr/s"},
	}
}
