package client

import (
	"testing"
	"time"

	"hydradb/internal/testutil"
)

func TestRenewerScanOnce(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewSharedCache()
	worker := env.newClient(t, Options{UseRDMARead: true, Cache: shared})
	renewClient := env.newClient(t, Options{UseRDMARead: true, Cache: shared})

	testutil.Must(worker.Put([]byte("hot"), []byte("v")))
	for i := 0; i < 10; i++ {
		testutil.Must1(worker.Get([]byte("hot")))
	}
	e, ok := shared.Get("hot")
	if !ok {
		t.Fatal("no cached pointer")
	}
	before := e.LeaseExp.Load()

	// Move close to expiry, then renew through the agent.
	env.clk.Advance(1500e6)
	r := NewRenewer(renewClient, 10*time.Millisecond, 2, 64*time.Second)
	if n := r.ScanOnce(); n != 1 {
		t.Fatalf("renewed %d keys, want 1", n)
	}
	e2, _ := shared.Get("hot")
	if e2.LeaseExp.Load() <= before {
		t.Fatal("lease not extended through the shared cache")
	}
	if r.TotalRenewed() != 1 {
		t.Fatalf("total = %d", r.TotalRenewed())
	}
	// Cold keys (below MinAccess) are skipped.
	testutil.Must(worker.Put([]byte("cold"), []byte("v")))
	env.clk.Advance(1500e6)
	r.ScanOnce()
	if r.TotalRenewed() > 2 { // "hot" may renew again; "cold" must not count extra
		t.Fatalf("renewed too many: %d", r.TotalRenewed())
	}
}

func TestRenewerBackgroundLoop(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewSharedCache()
	worker := env.newClient(t, Options{UseRDMARead: true, Cache: shared})
	agentClient := env.newClient(t, Options{UseRDMARead: true, Cache: shared})

	testutil.Must(worker.Put([]byte("hot"), []byte("v")))
	for i := 0; i < 10; i++ {
		testutil.Must1(worker.Get([]byte("hot")))
	}
	env.clk.Advance(1900e6) // lease nearly out

	r := NewRenewer(agentClient, time.Millisecond, 2, 64*time.Second)
	r.Start()
	r.Start() // idempotent
	defer r.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for r.TotalRenewed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background renewer never renewed")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	// The worker keeps hitting one-sided past the original expiry: the
	// renewal bought (at least) a fresh base term. Note the renewed term is
	// short — one-sided reads are invisible to the server (§4.2.3), so the
	// server-side popularity driving the term comes from renewals alone.
	env.clk.Advance(1e9)
	if _, err := worker.Get([]byte("hot")); err != nil {
		t.Fatal(err)
	}
	snap := worker.Counters().Snapshot()
	if snap.RDMAReadStale != 0 {
		t.Fatalf("renewed key went stale: %+v", snap)
	}
}
