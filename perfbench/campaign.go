package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"rvcte/internal/campaign"
)

var campaignWorkload = &workload{
	name:     "campaign-tcpip",
	setup:    campaignSetup,
	iterate:  campaignRun,
	endToEnd: commonMetrics,
}

// campaignBatch is the coordinator's default lease size (Spec.Batch 0);
// the path budget is checked once per returned lease, so a campaign
// overshoots it by less than one lease.
const campaignBatch = 16

// request is one control-plane request as the wrapped server saw it.
type request struct {
	route     string // lease, results, heartbeat, findings, status, create, other
	dur       time.Duration
	code      int
	reqBytes  int64
	respBytes int64
}

// plane wraps the handler campaign.NewServer returns: it times every
// request, counts payload bytes, records a span per request and notes
// when the first lease request arrives (the end of set-up).
type plane struct {
	inner   http.Handler
	spans   *spans
	root    int
	onLease func() // called once, when the first lease request arrives

	mu    sync.Mutex
	first time.Time // arrival of the first lease request
	reqs  []request
}

func routeOf(r *http.Request) string {
	p := strings.TrimRight(r.URL.Path, "/")
	switch {
	case strings.HasSuffix(p, "/lease"):
		return "lease"
	case strings.HasSuffix(p, "/results"):
		return "results"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/findings"):
		return "findings"
	case p == "/campaigns" && r.Method == http.MethodPost:
		return "create"
	case strings.HasPrefix(p, "/campaigns"):
		return "status"
	}
	return "other"
}

func (p *plane) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	if route == "lease" {
		p.mu.Lock()
		isFirst := p.first.IsZero()
		if isFirst {
			p.first = time.Now()
		}
		p.mu.Unlock()
		if isFirst && p.onLease != nil {
			p.onLease()
		}
	}
	id := p.spans.start("http."+route, p.root)
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	p.inner.ServeHTTP(cw, r)
	d := time.Since(start)
	p.spans.end(id)
	p.mu.Lock()
	p.reqs = append(p.reqs, request{route: route, dur: d, code: cw.code, reqBytes: body.n, respBytes: cw.n})
	p.mu.Unlock()
}

// snapshot returns the first lease's arrival time (zero if none came)
// and the requests served so far.
func (p *plane) snapshot() (time.Time, []request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first, append([]request(nil), p.reqs...)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	code int
	n    int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// Flush keeps the findings stream streaming through the wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// campaignSpec is the benchmark campaign: patched tcpip, one path
// budget, coordinator defaults for sharding and lease size.
func campaignSpec(sz sizes, seed int64) campaign.Spec {
	return campaign.Spec{
		Prog:     "tcpip",
		FixList:  "1,2,3,4,5,6",
		PktMax:   sz.PktMax,
		MaxPaths: sz.CampaignPaths,
		Seed:     seed,
	}
}

// service is one in-process deployment: a coordinator behind a
// loopback listener and one worker goroutine.
type service struct {
	plane  *plane
	srv    *httptest.Server
	client *campaign.Client
	id     string
	cancel context.CancelFunc
	done   sync.WaitGroup
}

// startService brings up the coordinator and listener, submits the
// campaign and starts the worker.
func startService(ctx context.Context, it *iteration, spec campaign.Spec, onLease func()) (*service, error) {
	co, err := campaign.NewCoordinator("", it.obs)
	if err != nil {
		return nil, err
	}
	s := &service{plane: &plane{inner: campaign.NewServer(co, it.obs), spans: it.spans, root: it.root, onLease: onLease}}
	s.srv = httptest.NewServer(s.plane)
	s.client = campaign.NewClient(s.srv.URL)
	st, err := s.client.Create(ctx, spec)
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.id = st.Spec.ID
	wctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		_ = campaign.RunWorker(wctx, campaign.WorkerOptions{
			Server: s.srv.URL, ID: "bench-w1", Campaign: s.id, Poll: 10 * time.Millisecond,
		}) // returns the context's error once stopped
	}()
	return s, nil
}

// stop cancels the worker, waits for it and closes the listener.
func (s *service) stop() {
	s.cancel()
	s.done.Wait()
	s.srv.Close()
}

// campaignDeadline bounds one campaign (a run takes about 3 s), so a
// stuck worker fails its gate instead of hanging the benchmark.
const campaignDeadline = 2 * time.Minute

// campaignSetup times one deployment from an empty process state to the
// worker's first lease request (which includes the worker building and
// booting the guest), then tears it down, abandoning that lease.
func campaignSetup(ctx context.Context, sz sizes) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, campaignDeadline)
	defer cancel()
	it := &iteration{}
	reached := make(chan struct{})
	start := time.Now()
	s, err := startService(ctx, it, campaignSpec(sz, 0), func() { close(reached) })
	if err != nil {
		return 0, err
	}
	select {
	case <-reached:
	case <-ctx.Done():
	}
	s.stop()
	first, _ := s.plane.snapshot()
	if first.IsZero() {
		return 0, fmt.Errorf("no lease request: %w", ctx.Err())
	}
	return first.Sub(start), nil
}

// campaignRun runs one budgeted campaign to done and gates it.
func campaignRun(ctx context.Context, sz sizes, it *iteration) {
	ctx, cancel := context.WithTimeout(ctx, campaignDeadline)
	defer cancel()
	start := time.Now()
	s, err := startService(ctx, it, campaignSpec(sz, it.seed), nil)
	if !it.check(err == nil, "start campaign: %v", err) {
		return
	}
	final, err := s.client.StreamFindings(ctx, s.id, nil)
	end := time.Now()
	s.stop()
	first, reqs := s.plane.snapshot()
	it.requests = reqs
	if !it.check(err == nil && !first.IsZero(), "campaign ended without a lease: %v", err) {
		return
	}
	it.setup, it.main = first.Sub(start), end.Sub(first)
	it.final = &final
	for _, r := range it.requests {
		it.check(r.code >= 200 && r.code < 300, "control plane %s answered %d", r.route, r.code)
		if r.route == "results" {
			it.count.Leases++
		}
	}
	st := final.Stats
	it.check(final.State == campaign.StateDone, "campaign state %s", final.State)
	it.check(final.Findings == 0, "patched guest reported %d findings", final.Findings)
	it.check(st.Duplicates == 0, "%d duplicate path records", st.Duplicates)
	it.check(st.Expired == 0, "%d leases expired", st.Expired)
	it.check(st.Requeued == 0, "%d leased inputs requeued", st.Requeued)
	it.check(st.Paths >= sz.CampaignPaths && st.Paths < sz.CampaignPaths+campaignBatch,
		"%d paths for a budget of %d", st.Paths, sz.CampaignPaths)
	it.count.Paths, it.count.Queries, it.count.Instr = st.Paths, st.Queries, st.Instr
	it.runs = st.Paths
}
