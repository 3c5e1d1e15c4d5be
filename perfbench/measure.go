package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"rvcte/internal/campaign"
	"rvcte/internal/obs"
)

// sizes fixes how much work one iteration of each workload does. The
// self-test shrinks them; the benchmark always runs defaultSizes.
type sizes struct {
	PktMax        int    // tcpip symbolic packet bound
	FindStages    int    // find-fix stages before the patched sweep (6 = every seeded bug)
	FuzzExecs     uint64 // hybrid exec budget per iteration
	CampaignPaths int    // campaign path budget
	SetupReps     int    // dedicated set-ups timed per run for setup_s
}

var defaultSizes = sizes{
	PktMax:        64,
	FindStages:    6,
	FuzzExecs:     4_000,
	CampaignPaths: 400,
	SetupReps:     25,
}

// options is one invocation's configuration.
type options struct {
	seed    int64
	seconds time.Duration
	sizes   sizes
}

// counts are the simulated quantities of one iteration. At one worker
// they are a pure function of the program and the iteration's seed, so
// they repeat exactly; a change that claims to alter only speed must
// leave them unchanged.
type counts struct {
	Paths   int    // concolic / campaign paths
	Queries int    // SAT queries that reached the solver
	Instr   uint64 // guest instructions retired (iss.instr)
	Execs   uint64 // hybrid concrete executions
	Edges   int    // hybrid edge coverage
	Leases  int    // campaign leases executed
}

func (c counts) String() string {
	return fmt.Sprintf("paths=%d queries=%d instr=%d execs=%d edges=%d leases=%d",
		c.Paths, c.Queries, c.Instr, c.Execs, c.Edges, c.Leases)
}

// iteration is one complete pass of a workload: fresh guest, fresh
// caches, every gate checked.
type iteration struct {
	index  int
	seed   int64
	traced bool
	obs    *obs.Obs     // traced iterations only
	events bytes.Buffer // the obs tracer's JSONL stream
	spans  *spans       // nil when untraced
	root   int          // this iteration's root span

	setup time.Duration // build and boot (+ control plane) up to the first engine call or lease
	main  time.Duration // first engine call or lease to the final verdict
	runs  int           // guest executions in the main phase (paths or concrete execs)
	count counts

	find       time.Duration // tcpip-findfix: stages 1-6 including rebuilds
	sweep      time.Duration // tcpip-findfix: the patched sweep's Session.Run
	sweepPaths int

	requests []request // campaign control-plane requests
	final    *campaign.Status

	allocBytes uint64  // Go heap bytes allocated during the iteration
	gcCPU      float64 // GC CPU seconds during the iteration
	cpu        float64 // process CPU seconds (user+system) during the iteration

	attempted, failed int
	failures          []string
}

// check counts one attempted operation and records it as failed unless
// ok holds.
func (it *iteration) check(ok bool, format string, args ...any) bool {
	it.attempted++
	if !ok {
		it.failed++
		it.failures = append(it.failures, fmt.Sprintf("iteration %d: ", it.index)+fmt.Sprintf(format, args...))
	}
	return ok
}

// workload is one benchmark scenario (README.md "Workloads").
type workload struct {
	name string
	// seedPerIteration draws a fresh sub-seed for every iteration (the
	// fuzzer's trajectory depends on it); otherwise every iteration
	// runs the invocation's seed and must repeat the same counts.
	seedPerIteration bool
	setup            func(ctx context.Context, sz sizes) (time.Duration, error)
	iterate          func(ctx context.Context, sz sizes, it *iteration)
	endToEnd         func(its []*iteration) map[string]metric
}

// workloads in BENCHMARK.json order.
var workloads = []*workload{findfixWorkload, fuzzWorkload, campaignWorkload}

func lookup(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// subSeed is iteration i's seed: the invocation seed itself, or a
// distinct deterministic derivation of it.
func (w *workload) subSeed(seed int64, i int) int64 {
	if !w.seedPerIteration {
		return seed
	}
	return seed*1_000_003 + int64(i)
}

// result is everything one invocation reports.
type result struct {
	metrics           map[string]metric
	lines             []string
	attempted, failed int
	failures          []string
	spans             []span
	events            []byte
}

func (r *result) absorb(it *iteration) {
	r.attempted += it.attempted
	r.failed += it.failed
	r.failures = append(r.failures, it.failures...)
	tag := "untraced"
	if it.traced {
		tag = "traced"
	}
	r.lines = append(r.lines, fmt.Sprintf("iteration %d %s seed=%d setup=%.4fs main=%.4fs cpu=%.4fs gc_cpu=%.4fs %s",
		it.index, tag, it.seed, it.setup.Seconds(), it.main.Seconds(), it.cpu, it.gcCPU, it.count))
}

// runIteration runs one iteration and brackets it with the Go runtime
// counters.
func runIteration(ctx context.Context, w *workload, sz sizes, it *iteration) {
	runtime.GC() // start every iteration from a collected heap
	before := readRuntime()
	if it.traced {
		it.obs = obs.New()
		it.obs.Tracer = obs.NewTracer(&it.events)
		it.spans = newSpans(fmt.Sprintf("%s/seed%d/iter%d", w.name, it.seed, it.index))
		it.root = it.spans.start("iteration", 0)
	}
	w.iterate(ctx, sz, it)
	if it.traced {
		it.spans.end(it.root)
		it.check(it.obs.Tracer.Close() == nil, "trace flush failed")
	}
	after := readRuntime()
	it.allocBytes = after.alloc - before.alloc
	it.gcCPU = after.gcCPU - before.gcCPU
	it.cpu = after.cpu - before.cpu
}

// setupSamples times sz.SetupReps dedicated set-ups, each from a
// collected heap.
func setupSamples(ctx context.Context, w *workload, sz sizes, r *result) []float64 {
	var out []float64
	for i := 0; i < sz.SetupReps; i++ {
		runtime.GC()
		d, err := w.setup(ctx, sz)
		r.attempted++
		if err != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("setup %d: %v", i, err))
			continue
		}
		out = append(out, d.Seconds())
	}
	return out
}

// checkRepeat gates determinism: iterations that ran the same seed must
// report identical simulated counts.
func checkRepeat(its []*iteration, r *result) {
	first := map[int64]*iteration{}
	for _, it := range its {
		ref, ok := first[it.seed]
		if !ok {
			first[it.seed] = it
			continue
		}
		r.attempted++
		if it.count != ref.count {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("iteration %d counts {%s} differ from iteration %d {%s} on the same seed",
				it.index, it.count, ref.index, ref.count))
		}
	}
}

// measure runs untraced iterations for opts.seconds and derives the
// end-to-end metrics.
func measure(ctx context.Context, w *workload, opts options) *result {
	r := &result{}
	setups := setupSamples(ctx, w, opts.sizes, r)
	var its []*iteration
	start := time.Now()
	for i := 0; ctx.Err() == nil && (i == 0 || time.Since(start) < opts.seconds); i++ {
		it := &iteration{index: i, seed: w.subSeed(opts.seed, i)}
		runIteration(ctx, w, opts.sizes, it)
		r.absorb(it)
		its = append(its, it)
	}
	checkRepeat(its, r)
	r.metrics = w.endToEnd(its)
	r.metrics["setup_s"] = metric{median(setups), "s"}
	r.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	r.lines = append(r.lines, fmt.Sprintf("setup samples: %d, iterations: %d in %.2fs", len(setups), len(its), time.Since(start).Seconds()))
	return r
}

// measureTraced runs pairs of iterations on the same seed, one untraced
// and one traced, for opts.seconds. Per-layer metrics come from the first
// pair's traced iteration (its counts are deterministic); the tracing
// overhead is the median over pairs of the main-phase time ratio.
func measureTraced(ctx context.Context, w *workload, opts options) *result {
	r := &result{}
	var plain, traced []*iteration
	start := time.Now()
	for i := 0; ctx.Err() == nil && (i == 0 || time.Since(start) < opts.seconds); i++ {
		seed := w.subSeed(opts.seed, i)
		u := &iteration{index: 2 * i, seed: seed}
		t := &iteration{index: 2*i + 1, seed: seed, traced: true}
		// Alternate which side runs first, so drift within the run
		// does not bias the overhead.
		first, second := u, t
		if i%2 == 1 {
			first, second = t, u
		}
		runIteration(ctx, w, opts.sizes, first)
		runIteration(ctx, w, opts.sizes, second)
		r.absorb(u)
		r.absorb(t)
		plain = append(plain, u)
		traced = append(traced, t)
		r.spans = append(r.spans, t.spans.list...)
		if i == 0 {
			r.events = t.events.Bytes()
		}
	}
	// Tracing must observe, not perturb: each pair ran one seed.
	checkRepeat(append(append([]*iteration(nil), plain...), traced...), r)

	var overhead []float64
	for i := range plain {
		overhead = append(overhead, 100*(traced[i].main.Seconds()/plain[i].main.Seconds()-1))
	}
	r.metrics = layerMetrics(plain[0], traced[0])
	r.metrics["trace.overhead_pct"] = metric{median(overhead), "%"}
	r.metrics["fail_ratio"] = metric{r.failRatio(), "ratio"}
	r.lines = append(r.lines, fmt.Sprintf("pairs: %d in %.2fs", len(plain), time.Since(start).Seconds()))
	r.lines = append(r.lines, selfTimeLines(r.spans)...)
	return r
}

// runtimeSample holds the cumulative Go runtime counters the benchmark
// brackets iterations with.
type runtimeSample struct {
	alloc uint64
	gcCPU float64
	cpu   float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return runtimeSample{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: cpu}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
