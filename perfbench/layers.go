package main

import (
	"bytes"
	"strings"
	"time"

	"rvcte/internal/obs"
)

// layerMetrics derives the per-layer metrics from one pair: the traced
// iteration t (obs registry, tracer events, spans, control-plane
// samples) and its untraced twin u (Go runtime counters, free of the
// tracer's own allocations). A metric whose counter the run never
// registered, or whose denominator is zero, reads na.
func layerMetrics(u, t *iteration) map[string]metric {
	snap := t.obs.Snapshot()
	c := func(name string) float64 {
		v, ok := snap.Counters[name]
		if !ok {
			return na
		}
		return float64(v)
	}
	g := func(name string) float64 {
		v, ok := snap.Gauges[name]
		if !ok {
			return na
		}
		return float64(v)
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// guest: the benchmark's own spans around guest.Build and NewCore.
	build, okB := t.spans.total("guest.Build")
	boot, okN := t.spans.total("guest.NewCore")
	set("guest.build_s", ifOK(build, okB), "s")
	set("guest.boot_s", ifOK(boot-build, okB && okN), "s")

	// iss
	instr, execs := c("iss.instr"), c("iss.execs")
	set("iss.instr", instr, "count")
	set("iss.instr_per_path", ratio(instr, execs), "count")
	hits, misses := c("iss.bb.hits"), c("iss.bb.misses")
	set("iss.bb_hit_ratio", ratio(hits, sum(hits, misses)), "ratio")
	set("iss.bb_inval", c("iss.bb.inval"), "count")

	// smt
	solverS := scale(c("smt.solver_ns"), 1e-9)
	qh, okQ := snap.Histograms["smt.query_us"]
	set("smt.queries", c("smt.queries"), "count")
	set("smt.solver_s", solverS, "s")
	set("smt.query_p50_us", histQuantile(snap, "smt.query_us", 0.50), "us")
	set("smt.query_p99_us", histQuantile(snap, "smt.query_us", 0.99), "us")
	set("smt.query_samples", ifOK(float64(qh.Count), okQ), "count")
	set("smt.unknown", c("smt.unknown"), "count")

	// qcache
	lookups := c("qcache.queries")
	set("qcache.lookups", lookups, "count")
	set("qcache.hit_ratio", ratio(sum(c("qcache.hits"), c("qcache.eval_hits"), c("qcache.subsume_hits")), lookups), "ratio")
	resolveUS, okR := 0.0, false
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "qcache.resolve_us.") {
			resolveUS += float64(h.Sum)
			okR = true
		}
	}
	set("qcache.resolve_s", ifOK(resolveUS/1e6, okR), "s")
	set("qcache.overhead_s", ifOK(resolveUS/1e6-solverS, okR && solverS != na), "s")
	set("qcache.large_sets", c("qcache.large_sets"), "count")

	// cte
	paths := c("cte.paths")
	set("cte.paths", paths, "count")
	set("cte.path_p50_us", histQuantile(snap, "cte.path_us", 0.50), "us")
	set("cte.path_p99_us", histQuantile(snap, "cte.path_us", 0.99), "us")
	set("cte.fork_ratio", ratio(c("cte.forks"), paths), "ratio")
	set("cte.fork_restarts", c("cte.fork_restarts"), "count")

	// fuzz and the hybrid concolic assist
	set("fuzz.execs", c("fuzz.execs"), "count")
	set("fuzz.edges", g("fuzz.edges"), "count")
	set("fuzz.corpus", g("fuzz.corpus"), "count")
	set("fuzz.batch_p50_ms", batchP50MS(t.events.Bytes()), "ms")
	set("hybrid.escalations", c("hybrid.escalations"), "count")
	set("hybrid.solve_ratio", ratio(c("hybrid.solves"), c("hybrid.flips_attempted")), "ratio")
	set("hybrid.replayed_instr", c("hybrid.replayed_instr"), "count")

	// campaign: control-plane samples from the wrapped handler, the
	// rest from the coordinator's Status.Stats. The worker's Runner
	// carries no obs, so its engine-side layers are read from the
	// per-lease ResultStats the coordinator sums.
	for _, route := range []string{"lease", "results"} {
		var ds []time.Duration
		for _, r := range t.requests {
			if r.route == route {
				ds = append(ds, r.dur)
			}
		}
		set("campaign."+route+"_p50_ms", durationQuantileMS(ds, 0.50), "ms")
		set("campaign."+route+"_p90_ms", durationQuantileMS(ds, 0.90), "ms")
	}
	reqB, respB := na, na
	if len(t.requests) > 0 {
		reqB, respB = 0, 0
		for _, r := range t.requests {
			reqB += float64(r.reqBytes)
			respB += float64(r.respBytes)
		}
	}
	set("campaign.req_bytes", reqB, "bytes")
	set("campaign.resp_bytes", respB, "bytes")
	leases, stolen, dups, expired, requeued := na, na, na, na, na
	if st := t.final; st != nil {
		leases = float64(t.count.Leases)
		stolen, dups = float64(st.Stats.Stolen), float64(st.Stats.Duplicates)
		expired, requeued = float64(st.Stats.Expired), float64(st.Stats.Requeued)
		set("iss.instr", float64(st.Stats.Instr), "count")
		set("iss.instr_per_path", ratio(float64(st.Stats.Instr), float64(st.Stats.Paths)), "count")
		set("smt.queries", float64(st.Stats.Queries), "count")
		set("cte.paths", float64(st.Stats.Paths), "count")
	}
	set("campaign.leases", leases, "count")
	set("campaign.stolen", stolen, "count")
	set("campaign.duplicates", dups, "count")
	set("campaign.expired", expired, "count")
	set("campaign.requeued", requeued, "count")

	// go runtime, from the untraced twin
	set("go.alloc_mb", float64(u.allocBytes)/(1<<20), "MB")
	set("go.gc_cpu_s", u.gcCPU, "s")
	return m
}

func ifOK(v float64, ok bool) float64 {
	if !ok {
		return na
	}
	return v
}

// ratio is a/b, na when either is unavailable or b is zero.
func ratio(a, b float64) float64 {
	if a == na || b == na || b == 0 {
		return na
	}
	return a / b
}

// sum adds the available values (na if none is).
func sum(vs ...float64) float64 {
	s, ok := 0.0, false
	for _, v := range vs {
		if v != na {
			s += v
			ok = true
		}
	}
	return ifOK(s, ok)
}

func scale(v, k float64) float64 {
	if v == na {
		return na
	}
	return v * k
}

// histQuantile reads the q-th quantile of a latency histogram as the
// upper bound of the bucket that holds it (the last bound for the
// overflow bucket), na when the histogram is absent or empty.
func histQuantile(s *obs.Snapshot, name string, q float64) float64 {
	h, ok := s.Histograms[name]
	if !ok || h.Count == 0 {
		return na
	}
	rank := int64(q*float64(h.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			if i < len(h.Bounds) {
				return float64(h.Bounds[i])
			}
			break
		}
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// batchP50MS is the median duration of the fuzz_batch trace events.
func batchP50MS(events []byte) float64 {
	evs, err := obs.ReadTrace(bytes.NewReader(events))
	if err != nil {
		return na
	}
	var ds []time.Duration
	for _, e := range evs {
		if e.Ev == obs.EvFuzzBatch {
			ds = append(ds, time.Duration(e.DurUS)*time.Microsecond)
		}
	}
	return durationQuantileMS(ds, 0.5)
}
