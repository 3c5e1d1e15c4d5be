package cte

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// semanticRecord keys one executed path by its observable behavior —
// model choices (and thus assignment keys) are solver-history-dependent,
// so cross-process comparisons use behavior, not raw inputs (same
// contract as the parallel-mode fork tests).
func semanticRecord(c *iss.Core) string {
	return fmt.Sprintf("exit=%d err=%v out=%q", c.ExitCode, c.Err, c.Output)
}

// TestWireInputRoundTrip: exporting a frontier input and importing it
// into a different builder preserves the assignment (by name), the
// bound and the dedup key, including zero-valued assignments.
func TestWireInputRoundTrip(t *testing.T) {
	b1 := smt.NewBuilder()
	// Create vars in one order on the exporting side...
	x := b1.Var(32, "x")
	y := b1.Var(8, "y")
	in := Input{Assignment: smt.Assignment{int(x.Val): 41, int(y.Val): 0}, Bound: 3, Gen: 2}

	wi := ExportInput(b1, in)
	if wi.Key() != InputKey(b1, in) {
		t.Fatalf("wire key %q != engine key %q", wi.Key(), InputKey(b1, in))
	}
	data, err := json.Marshal(wi)
	if err != nil {
		t.Fatal(err)
	}
	var back WireInput
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	// ... and in the opposite order (plus an extra var) on the importer.
	b2 := smt.NewBuilder()
	b2.Var(16, "unrelated")
	b2.Var(8, "y")
	got := ImportInput(b2, back)
	if got.Bound != 3 || got.Gen != 2 {
		t.Fatalf("bound/gen lost: %+v", got)
	}
	if InputKey(b2, got) != wi.Key() {
		t.Fatalf("imported key %q != wire key %q", InputKey(b2, got), wi.Key())
	}
	if v := b2.Value(got.Assignment, "x"); v != 41 {
		t.Fatalf("x = %d want 41", v)
	}
	if id, ok := b2.VarID("y"); !ok || got.Assignment[id] != 0 {
		t.Fatalf("zero-valued y lost: %v", got.Assignment)
	}
}

// TestRootsBatchExecution is the campaign worker contract: with
// Options.Roots + MaxPaths == len(Roots) + BFS, exactly the leased
// inputs execute and their children land unexplored in Report.Frontier.
// Driving the exported frontier to exhaustion in a *fresh* process
// (builder + snapshot) reaches the same semantic path set as one
// uninterrupted exploration. With a worker pool, paths still in flight
// when the path budget halts the run must export their children too.
func TestRootsBatchExecution(t *testing.T) {
	for _, tc := range []struct {
		name    string
		src     string
		batch   int // leased inputs per simulated process
		workers int
	}{
		{"counter/w1", counterSrc, 3, 1},
		{"counter/w4", counterSrc, 3, 4},
		{"bitstorm/w4", bitstormSrc, 14, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRootsBatchExecution(t, tc.src, tc.batch, tc.workers)
		})
	}
}

func checkRootsBatchExecution(t *testing.T, src string, batchSize, workers int) {
	// Uninterrupted baseline.
	var want []string
	base := NewSession(snapshot(t, src), Config{Budget: Budget{MaxPaths: 1000}})
	base.OnPath = func(_ int, c *iss.Core) { want = append(want, semanticRecord(c)) }
	baseRep := base.Run(context.Background())
	if !baseRep.Exhausted {
		t.Fatal("baseline not exhausted")
	}

	// Batched exploration: carry the frontier across simulated process
	// boundaries in wire form, executing at most batchSize inputs per lease.
	root := WireInput{} // empty assignment, bound 0
	pending := []WireInput{root}
	seen := map[string]bool{root.Key(): true} // every key ever enqueued
	var got []string
	for rounds := 0; len(pending) > 0; rounds++ {
		if rounds > 100 {
			t.Fatal("no convergence")
		}
		batch := pending
		if len(batch) > batchSize {
			batch = batch[:batchSize]
		}
		pending = pending[len(batch):]

		snap := snapshot(t, src) // fresh process state
		roots := make([]Input, len(batch))
		for i, wi := range batch {
			roots[i] = ImportInput(snap.B, wi)
		}
		eng := NewSession(snap, Config{Workers: workers, Budget: Budget{MaxPaths: len(roots)},
			Explore: ExploreConfig{Roots: roots, ExportFrontier: true}})
		eng.OnPath = func(_ int, c *iss.Core) { got = append(got, semanticRecord(c)) }
		rep := eng.Run(context.Background())
		if rep.Paths != len(roots) {
			t.Fatalf("lease executed %d paths want %d", rep.Paths, len(roots))
		}
		for _, ch := range rep.Frontier {
			wi := ExportInput(snap.B, ch)
			if !seen[wi.Key()] { // coordinator-side dedup
				seen[wi.Key()] = true
				pending = append(pending, wi)
			}
		}
	}

	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("path counts: batched %d baseline %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path records diverge:\n batched:  %s\n baseline: %s", got[i], want[i])
		}
	}
}
