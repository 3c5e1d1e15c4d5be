package campaign

import (
	"context"
	"testing"
)

// TestHybridCampaignTCPIP exercises the hybrid lease path: timeboxed
// fuzzing leases over the tcpip stack, corpus deltas flowing through
// the coordinator between leases, stop-on-error completion with a
// classified Table-2 bug.
func TestHybridCampaignTCPIP(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid fuzzing is slow")
	}
	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Short stall windows keep the solver in the loop (the tcpip gates
	// are comparison-shaped — same knobs as the hybrid ablation). The
	// race detector slows concrete execution by an order of magnitude,
	// so the per-lease timebox widens accordingly.
	leaseMS := int64(2_000)
	if raceEnabled {
		leaseMS = 20_000
	}
	st, err := co.Create(Spec{
		Prog: "tcpip", Mode: "hybrid",
		FuzzLeaseMS: leaseMS, LeaseTTLMS: 600_000, StopOnError: true, Seed: 1,
		FuzzBatch: 200, StallExecs: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	r, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}

	maxLeases := 30
	if raceEnabled {
		maxLeases = 10
	}
	for lease := 0; lease < maxLeases; lease++ {
		qseq, cseq := r.Cursors()
		l, err := co.Lease(id, LeaseRequest{Worker: "hx", QSeq: qseq, CSeq: cseq})
		if err != nil {
			t.Fatal(err)
		}
		r.Sync(l)
		if l.Done {
			break
		}
		if l.ID == "" || l.FuzzMS != leaseMS || l.Shard != -1 {
			t.Fatalf("hybrid lease shape: %+v", l)
		}
		res := r.Run(context.Background(), l)
		res.Worker = "hx"
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
	}

	final, _ := co.Status(id)
	if final.State != StateDone {
		t.Fatalf("hybrid campaign state %q after lease budget (stats %+v)", final.State, final.Stats)
	}
	if final.Stats.Execs == 0 {
		t.Fatal("no fuzz executions accounted")
	}
	if final.Findings == 0 {
		t.Fatal("hybrid campaign found nothing")
	}
	fs, _, _ := co.FindingsSince(context.Background(), id, 0)
	f := fs[0]
	if f.Bug < 1 || f.Bug > 6 {
		t.Fatalf("tcpip finding not classified to a Table-2 bug: %+v", f)
	}
	if f.Kind == "" || f.Func == "" {
		t.Fatalf("finding missing classification: %+v", f)
	}
}

// TestLeaseSeedPerLease: hybrid leases fuzz with seeds derived from the
// campaign seed and the lease ID — stable for a given lease, different
// across leases and campaign seeds — so successive leases over the
// synced corpus do not replay one mutation stream.
func TestLeaseSeedPerLease(t *testing.T) {
	if leaseSeed(1, "c1-l1") != leaseSeed(1, "c1-l1") {
		t.Fatal("lease seed is not reproducible")
	}
	seen := map[int64]string{}
	for _, id := range []string{"c1-l1", "c1-l2", "c1-l3", "c2-l1"} {
		s := leaseSeed(1, id)
		if prev, ok := seen[s]; ok {
			t.Fatalf("leases %s and %s share seed %d", prev, id, s)
		}
		seen[s] = id
	}
	if leaseSeed(1, "c1-l1") == leaseSeed(2, "c1-l1") {
		t.Fatal("lease seed ignores the campaign seed")
	}
}
