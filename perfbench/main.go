// Command perfbench is the repository benchmark. It drives the public
// entry points — guest.Build/guest.NewCore, cte.NewSession(...).Run and
// the campaign coordinator, server, client and worker — through three
// workloads on the tcpip guest, checks every result against its
// correctness gates, and prints the metrics with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of untraced
// runs; with -trace 1 they are the per-layer metrics of a traced run,
// plus the tracing overhead. README.md describes the workloads, the
// metrics and what stays unmeasured.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload tcpip-findfix --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], defaultSizes, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the command line, measures one workload at sizes sz and
// reports it. Exit codes: 0 all gates passed, 1 a gate failed, 2 usage
// error.
func run(ctx context.Context, args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (cte.Config.Seed / campaign Spec.Seed)")
	seconds := fs.Float64("seconds", 10, "measurement time; iterations start until it has elapsed")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of a traced run")
	out := fs.String("out", ".bench_build/perfbench-traces", "directory the -trace 1 span and event files are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %s and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	opts := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), sizes: sz}
	var res *result
	if *trace == 1 {
		res = measureTraced(ctx, w, opts)
		if err := res.writeTrace(*out, w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 2
		}
	} else {
		res = measure(ctx, w, opts)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 2
	}
	res.report(stdout)
	if !res.correct() {
		return 1
	}
	return 0
}

// metric is one reported value with its unit. Unavailable per-layer
// metrics carry na (see README.md "Per-layer metrics").
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// na marks a per-layer metric the workload's run does not expose: the
// counter it derives from was never registered, or its denominator is
// zero.
const na = -1.0

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// report prints the human-readable lines (per-iteration counts and
// host times, failures, metrics) and then the JSON summary line.
func (r *result) report(w io.Writer) {
	for _, line := range r.lines {
		fmt.Fprintln(w, line)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if m.Value == na {
			fmt.Fprintf(w, "%-26s %14s %s\n", n, "unavailable", m.Unit)
			continue
		}
		fmt.Fprintf(w, "%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%d of %d operations failed\n", r.failed, r.attempted)

	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for n, m := range r.metrics {
		// A failed run can leave a rate without a denominator; JSON has
		// no NaN, and such a run is already marked incorrect.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		s.Metrics[n] = m
	}
	line, err := json.Marshal(s)
	if err != nil {
		panic(err) // only finite floats and strings: unreachable
	}
	fmt.Fprintln(w, string(line))
}

func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// writeTrace writes the recorded spans and engine events of a traced
// run, one JSON object per line, once the run has ended.
func (r *result) writeTrace(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s/%s-seed%d", dir, workload, seed)
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".events.jsonl", r.events, 0o644)
}
