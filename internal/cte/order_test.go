package cte

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"rvcte/internal/iss"
)

// orderCases is the ordered-output table pinned at Workers == 1: every
// strategy (Random seeded) over an exhausting guest, a path-budgeted
// guest and a stop-on-error guest.
var orderCases = []struct {
	name        string
	src         string
	maxPaths    int
	stopOnError bool
}{
	{"counter", counterSrc, 100, false},
	{"bitstorm", bitstormSrc, 100, false},
	{"assert", assertBugSrc, 50, true},
}

// orderedRun explores src at Workers == 1 and renders the run as one
// text block: a header with the report counters, then one line per path
// in OnPath order (path ID, input, exit code, error).
func orderedRun(t *testing.T, src string, strat Strategy, maxPaths int, stopOnError bool) string {
	t.Helper()
	snap := snapshot(t, src)
	sess := NewSession(snap, Config{
		Workers:     1,
		Seed:        42,
		StopOnError: stopOnError,
		Budget:      Budget{MaxPaths: maxPaths},
		Explore:     ExploreConfig{Strategy: strat},
	})
	var lines []string
	sess.OnPath = func(path int, c *iss.Core) {
		lines = append(lines, fmt.Sprintf("%d %s exit=%d err=%v",
			path, DescribeInput(snap.B, c.Input), c.ExitCode, c.Err))
	}
	rep := sess.Run(context.Background())
	var findings []int
	for _, f := range rep.Findings {
		findings = append(findings, f.Path)
	}
	head := fmt.Sprintf("paths=%d queries=%d sat=%d unsat=%d unknown=%d pruned=%d findings=%v stopped=%s exhausted=%v",
		rep.Paths, rep.Queries, rep.SatTCs, rep.UnsatTCs, rep.UnknownTCs,
		rep.Pruned, findings, rep.Stopped, rep.Exhausted)
	return head + "\n" + strings.Join(lines, "\n") + "\n"
}

// TestOrderedOutputWorkers1 pins the deterministic one-worker schedule:
// path order, path IDs, inputs, findings order and the report counters
// must match testdata/order_w1.golden, which was recorded from the
// dedicated sequential engine that the one-worker pool replaced.
func TestOrderedOutputWorkers1(t *testing.T) {
	data, err := os.ReadFile("testdata/order_w1.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, block := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(block, "\n")
		golden[name] = body
	}
	for _, tc := range orderCases {
		for _, strat := range []Strategy{BFS, DFS, Random, Coverage} {
			name := tc.name + "/" + strat.String()
			t.Run(name, func(t *testing.T) {
				want, ok := golden[name]
				if !ok {
					t.Fatalf("no golden block for %s", name)
				}
				got := orderedRun(t, tc.src, strat, tc.maxPaths, tc.stopOnError)
				if got == want {
					return
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d diverges:\n got:  %s\n want: %s", i, gl[i], wl[i])
					}
				}
				t.Fatalf("line counts differ: got %d want %d", len(gl), len(wl))
			})
		}
	}
}
