package cte

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"rvcte/internal/smt"
)

// parallelRun is the shared state of one exploration — the engine's only
// clone → execute → solve → schedule loop, at any pool size. The mutex
// guards the frontier, the dedup set, the coverage map and the report;
// everything path-local (core clone, solver, blasted CNF) is
// worker-owned and needs no locking. The condition variable wakes idle
// workers when children are enqueued or the run stops.
type parallelRun struct {
	e    *engine
	ctx  context.Context
	mu   sync.Mutex
	cond *sync.Cond

	front    *frontier
	seen     map[string]bool
	cover    map[uint32]struct{}
	rep      *Report
	started  int // paths claimed, bounds MaxPaths
	inflight int // claimed but not yet merged
	deadline time.Time
	stop     bool // no further paths may be claimed
	errStop  bool // a StopOnError finding skipped its path's solving
	forks    int  // queued inputs holding a fork checkpoint
}

// maxQueuedForks bounds the fork checkpoints held by queued inputs. A
// checkpoint is a whole VP clone with its model applied (hundreds of KB
// on a stateful guest), and a coverage-scheduled frontier can grow to
// tens of thousands of inputs, so unbounded checkpoints exhaust memory
// long before the path budget. While the frontier holds that many, a
// claimed path runs without checkpoint capture, and children enqueued
// beyond the bound drop their checkpoint; either way they restart from
// the snapshot, which executes the same path (fork/restart parity) at
// the cost of re-running the prefix. A variable only so tests can
// exercise the bound on small guests.
var maxQueuedForks = 1024

// halt marks the run stopped with the given reason (the first reason
// wins). It only gates new claims: paths already in flight still merge
// their children, so the exported frontier stays complete. Called with
// x.mu held.
func (x *parallelRun) halt(reason string) {
	x.stop = true
	if x.rep.Stopped == "" {
		x.rep.Stopped = reason
	}
}

// runPool explores with a pool of workers. Each worker clones the
// frozen snapshot, executes one path on its own core and solves the
// trace conditions on its own solver; results are merged under the run
// lock. A pool of one claims and merges strictly in turn, so its path
// order is deterministic; with more workers the order depends on
// scheduling, but the explored path set, dedup and findings do not
// (paths are independent by construction, §3.1.1).
func (e *engine) runPool(ctx context.Context, workers int) *Report {
	start := time.Now()
	x := &parallelRun{
		e:     e,
		ctx:   ctx,
		front: newFrontier(e.Cfg.Explore.Strategy, rand.New(rand.NewSource(e.Cfg.Seed+1))),
		seen:  map[string]bool{},
		cover: make(map[uint32]struct{}),
		rep:   &Report{Workers: workers, PerWorker: make([]WorkerStats, workers)},
	}
	x.cond = sync.NewCond(&x.mu)
	e.seedFrontier(x.front, x.seen)

	var timer *time.Timer
	if e.Cfg.Budget.Timeout > 0 {
		x.deadline = start.Add(e.Cfg.Budget.Timeout)
		// The deadline is checked at claim time; the timer additionally
		// wakes workers blocked waiting for new queue entries.
		timer = time.AfterFunc(e.Cfg.Budget.Timeout, func() {
			x.mu.Lock()
			x.halt("timeout")
			x.mu.Unlock()
			x.cond.Broadcast()
		})
	}
	// Cancellation watcher: wakes blocked workers when ctx ends. The
	// run-done channel stops the watcher on normal completion.
	runDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				x.mu.Lock()
				x.halt("canceled")
				x.mu.Unlock()
				x.cond.Broadcast()
			case <-runDone:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			x.worker(id)
		}(w)
	}
	wg.Wait()
	close(runDone)
	if timer != nil {
		timer.Stop()
	}

	// Timer/cancellation callbacks may still be mid-halt() after Stop()
	// returns, so the finalization reads stay under the run lock. A
	// drained queue with every claimed path merged is a complete
	// exploration even when a timer or cancellation fired while the last
	// path ran — unless a stop-on-error finding skipped its solving.
	x.mu.Lock()
	rep := x.rep
	rep.Exhausted = !x.errStop && x.front.len() == 0
	if rep.Exhausted {
		rep.Stopped = "exhausted"
	}
	e.exportFrontier(x.front, rep)
	x.mu.Unlock()
	rep.Covered = x.cover
	rep.WallTime = time.Since(start)
	for _, ws := range rep.PerWorker {
		rep.Queries += ws.Queries
		rep.SolverTime += ws.SolverTime
	}
	return rep
}

// worker claims inputs until the queue drains or the run stops. Each
// worker owns a solver (and thus its own SAT instance and blasted CNF);
// the builder behind it is shared and internally locked.
func (x *parallelRun) worker(id int) {
	solver := smt.NewSolver(x.e.Builder)
	solver.MaxConflictsPerQuery = x.e.Cfg.Budget.MaxConflictsPerQuery
	solver.SetObs(x.e.Cfg.Obs)
	paths := 0
	for {
		x.mu.Lock()
		for !x.stop && x.front.len() == 0 && x.inflight > 0 {
			x.cond.Wait()
		}
		if x.stop || x.front.len() == 0 {
			// Stopped, or the queue drained with no path in flight that
			// could still produce children: the run is over.
			x.finish(id, solver, paths)
			return
		}
		if reason := x.claimStop(); reason != "" {
			x.halt(reason)
			x.finish(id, solver, paths)
			return
		}
		in, _ := x.front.pop() // non-empty: checked under this lock hold
		if in.Fork != nil {
			x.forks--
		}
		pathID := x.started
		capture := x.e.Cfg.Fork.Enabled && x.forks < maxQueuedForks
		x.started++
		x.inflight++
		x.mu.Unlock()

		res := x.e.executePath(in, solver, pathID, capture)
		paths++

		x.mu.Lock()
		x.merge(res)
		x.inflight--
		x.mu.Unlock()
		x.cond.Broadcast()
	}
}

// claimStop is the claim-time budget check: the reason the next claim
// must not happen, or "" to proceed. Polling ctx here (not only in the
// watcher goroutine) matters: a busy pool can drain a small queue before
// the watcher is ever scheduled, and this makes cancellation take effect
// within one path execution regardless. Called with x.mu held.
func (x *parallelRun) claimStop() string {
	switch {
	case x.ctx.Err() != nil:
		return "canceled"
	case x.e.Cfg.Budget.MaxPaths > 0 && x.started >= x.e.Cfg.Budget.MaxPaths:
		return "path-budget"
	case !x.deadline.IsZero() && !time.Now().Before(x.deadline):
		return "timeout"
	}
	return ""
}

// finish records the worker's solver statistics and wakes any blocked
// sibling so it can observe the stop. Called with x.mu held; releases it.
func (x *parallelRun) finish(id int, solver *smt.Solver, paths int) {
	x.rep.PerWorker[id] = WorkerStats{
		Paths:      paths,
		Queries:    solver.Stats.Queries,
		SolverTime: solver.Stats.SolverTime,
	}
	x.mu.Unlock()
	x.cond.Broadcast()
}

// merge folds one executed path into the shared report and enqueues its
// deduplicated children — also after a halt, so a stopped run's exported
// frontier still holds every in-flight path's children. Called with x.mu
// held.
func (x *parallelRun) merge(res pathResult) {
	e := x.e
	rep := x.rep
	core := res.core
	path := rep.Paths
	rep.Paths++
	e.obsPaths.Inc()
	rep.TotalInstr += res.instrs
	if res.forked {
		rep.Forked++
		e.obsForks.Inc()
	}
	rep.ForkRestarts += res.forkRestarts
	e.obsForkRestarts.Add(int64(res.forkRestarts))
	if e.OnPath != nil {
		// Serialized under the run lock; with more than one worker the
		// order is scheduling-dependent.
		e.OnPath(path, core)
	}

	var score float64
	if core.TrackCoverage {
		for pc := range core.Coverage {
			if _, ok := x.cover[pc]; !ok {
				x.cover[pc] = struct{}{}
				score++
			}
		}
		e.coverG.Set(int64(len(x.cover)))
	}

	if f, prune := findingOf(core, path); prune {
		rep.Pruned++
		e.obsPruned.Inc()
	} else if f != nil {
		rep.Findings = append(rep.Findings, *f)
		e.recordFinding(f)
		if e.Cfg.StopOnError {
			// In-flight siblings still merge their results, so the
			// report may carry more than one finding; no new paths are
			// claimed after this point.
			x.errStop = true
			x.halt("stop-on-error")
		}
	}

	rep.SatTCs += res.sat
	rep.UnsatTCs += res.unsat
	rep.UnknownTCs += res.unknown
	e.obsSat.Add(int64(res.sat))
	e.obsUnsat.Add(int64(res.unsat))
	e.obsUnknown.Add(int64(res.unknown))
	for _, ch := range res.children {
		key := childKey(e.Builder, ch)
		if x.seen[key] {
			continue
		}
		x.seen[key] = true
		ch.Score = score
		if ch.Fork != nil {
			if x.forks >= maxQueuedForks {
				ch.Fork = nil
				rep.ForkRestarts++
				e.obsForkRestarts.Inc()
			} else {
				x.forks++
			}
		}
		x.front.push(ch)
	}
	e.frontierG.Set(int64(x.front.len()))
}
