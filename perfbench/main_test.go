package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny are budgets small enough for a unit test; 48 is the smallest
// packet bound at which find-fix still reaches all six bugs.
var tiny = sizes{
	PktMax:        48,
	FindStages:    6,
	FuzzExecs:     400,
	CampaignPaths: 30,
	SetupReps:     2,
}

// benchmarkNames reads the metric names and units BENCHMARK.json
// declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if got, want := strings.Join(ws, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, harness has %s", got, want)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// invoke runs the command line and decodes its last output line.
func invoke(t *testing.T, sz sizes, args ...string) (int, summary) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(context.Background(), append(args, "--out", t.TempDir()), sz, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s%s", err, out.String(), errOut.String())
	}
	return code, s
}

// checkDeclared fails unless got holds exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, kind string, got map[string]metric, declared map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range declared {
		m, ok := got[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			t.Errorf("%s %s: unit %q, declared %q", kind, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("%s metrics: missing %v, undeclared %v", kind, missing, extra)
	}
}

// TestEveryMetricEmitted runs each workload once untraced and once
// traced at tiny budgets: all gates pass, and exactly the metrics
// BENCHMARK.json declares come out, end-to-end ones positive.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, s := invoke(t, tiny, "--workload", w, "--seed", "7", "--seconds", "0", "--trace", "0")
			if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("untraced: exit %d, %+v", code, s)
			}
			checkDeclared(t, "end-to-end", s.Metrics, endToEnd)
			for name, m := range s.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			code, s = invoke(t, tiny, "--workload", w, "--seed", "7", "--seconds", "0", "--trace", "1")
			if code != 0 || !s.Correct {
				t.Fatalf("traced: exit %d, %+v", code, s)
			}
			checkDeclared(t, "per-layer", s.Metrics, perLayer)
			if s.Metrics["fail_ratio"].Value != 0 {
				t.Errorf("fail_ratio = %v", s.Metrics["fail_ratio"].Value)
			}
		})
	}
}

// TestFailedGate cuts find-fix off after its first stage: the
// six-bugs gate fails, which must show in the failure count, the
// per-layer fail_ratio and the exit code.
func TestFailedGate(t *testing.T) {
	cut := tiny
	cut.FindStages = 1
	code, s := invoke(t, cut, "--workload", "tcpip-findfix", "--seed", "1", "--seconds", "0", "--trace", "0")
	if code != 1 || s.Correct || s.Failed == 0 {
		t.Fatalf("cut find-fix: exit %d, %+v; want exit 1 with failures", code, s)
	}
	code, s = invoke(t, cut, "--workload", "tcpip-findfix", "--seed", "1", "--seconds", "0", "--trace", "1")
	if code != 1 || !(s.Metrics["fail_ratio"].Value > 0) {
		t.Fatalf("cut find-fix traced: exit %d, fail_ratio %v", code, s.Metrics["fail_ratio"].Value)
	}
}

// TestUsage: unknown workloads and trace levels are usage errors that
// print no summary.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tcpip-fuzz", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, tiny, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestSelfTime checks the span arithmetic: overlapping children are
// subtracted once.
func TestSelfTime(t *testing.T) {
	list := []span{
		{ID: 1, Run: "r", Name: "root", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Run: "r", Name: "a", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Run: "r", Name: "b", StartUS: 30, EndUS: 50},
		{ID: 4, Parent: 1, Run: "r", Name: "b", StartUS: 90, EndUS: 120},
	}
	_, total, self, n := selfTimes(list)
	if self["root"] != 50 || total["root"] != 100 || n["b"] != 2 || self["b"] != 50 {
		t.Errorf("total %v self %v n %v", total, self, n)
	}
}
