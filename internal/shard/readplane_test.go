package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/timing"
)

func testReadPlaneShard(t testing.TB, readers int, policy lease.Policy) (*Shard, *rdma.Fabric) {
	t.Helper()
	f := rdma.NewFabric(rdma.Config{})
	sh := New(Config{
		ID:            9,
		NIC:           f.NewNIC("server"),
		ReaderThreads: readers,
		Store: kv.Config{
			ArenaBytes: 1 << 20,
			MaxItems:   4096,
			Policy:     policy,
			Clock:      timing.Wall(),
		},
	})
	return sh, f
}

// TestReadPlaneServesOps runs the full op mix through a read-plane shard:
// GET hits and misses come back from the readers, mutations and renewals of
// live keys from the fallback path, and the counters prove both planes ran.
func TestReadPlaneServesOps(t *testing.T) {
	sh, f := testReadPlaneShard(t, 2, lease.Policy{})
	go sh.Run()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)

	put := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("k"), Val: []byte("v")})
	if put.Status != message.StatusOK {
		t.Fatalf("put: %+v", put)
	}
	get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 2, Key: []byte("k")})
	if get.Status != message.StatusOK || string(get.Val) != "v" {
		t.Fatalf("get: %+v", get)
	}
	if get.Ptr.Zero() || get.Ptr.ShardID != 9 || get.LeaseExp == 0 {
		t.Fatalf("read-plane get must carry pointer+lease for the one-sided path: %+v", get)
	}
	miss := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 3, Key: []byte("absent")})
	if miss.Status != message.StatusNotFound {
		t.Fatalf("miss: %+v", miss)
	}
	renMiss := exchange(t, ep, message.Request{Op: message.OpRenewLease, Seq: 4, Key: []byte("absent")})
	if renMiss.Status != message.StatusNotFound {
		t.Fatalf("renew miss: %+v", renMiss)
	}
	ren := exchange(t, ep, message.Request{Op: message.OpRenewLease, Seq: 5, Key: []byte("k")})
	if ren.Status != message.StatusOK {
		t.Fatalf("renew: %+v", ren)
	}
	del := exchange(t, ep, message.Request{Op: message.OpDelete, Seq: 6, Key: []byte("k")})
	if del.Status != message.StatusOK {
		t.Fatalf("delete: %+v", del)
	}

	snap := sh.Counters.Snapshot()
	if snap.ReadPlaneHits < 3 { // get hit, get miss, renew reject
		t.Fatalf("read plane served %d requests, want >= 3", snap.ReadPlaneHits)
	}
	if snap.ReadPlaneFallbacks < 3 { // put, live renew, delete
		t.Fatalf("fallback path served %d requests, want >= 3", snap.ReadPlaneFallbacks)
	}
}

// TestReadPlaneSendRecv covers the two-sided transport under the read plane.
func TestReadPlaneSendRecv(t *testing.T) {
	sh, f := testReadPlaneShard(t, 2, lease.Policy{})
	go sh.Run()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), true)

	buf := make([]byte, 4096)
	send := func(req message.Request) message.Response {
		n := req.EncodeTo(buf)
		if err := ep.QP.Send(buf[:n]); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			body, ok := ep.QP.TryRecv()
			if ok {
				resp := mustDecodeResponse(t, body)
				return resp
			}
			if time.Now().After(deadline) {
				t.Fatal("no response")
			}
		}
	}
	if r := send(message.Request{Op: message.OpPut, Seq: 1, Key: []byte("sr"), Val: []byte("v")}); r.Status != message.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := send(message.Request{Op: message.OpGet, Seq: 2, Key: []byte("sr")}); r.Status != message.StatusOK || string(r.Val) != "v" {
		t.Fatalf("get: %+v", r)
	}
}

func mustDecodeResponse(t testing.TB, body []byte) message.Response {
	t.Helper()
	resp, err := message.DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Val) > 0 {
		v := make([]byte, len(resp.Val))
		copy(v, resp.Val)
		resp.Val = v
	}
	return resp
}

// TestReadPlaneStress is the satellite-4 churn test: several client
// goroutines on their own connections mix PUT/GET/DELETE/Renew over disjoint
// keys while aggressively short leases force continuous detach/reclaim and
// free-list reuse under the readers' feet. Each client checks
// read-your-writes after every ack — a torn probe, a stale publication word
// or a reclaimed-under-reader item would surface as a wrong value here (and
// as a data race under -race).
func TestReadPlaneStress(t *testing.T) {
	policy := lease.Policy{
		BaseTermNs:   200_000, // 0.2 ms: probes constantly race lease expiry
		MaxShift:     2,
		GraceNs:      100_000, // reclaim hot on the readers' heels
		DecayEpochNs: 1e9,
	}
	sh, f := testReadPlaneShard(t, 4, policy)
	go sh.Run()
	defer sh.Stop()

	const clients = 6
	const keysPerClient = 8
	iters := 400
	if testing.Short() {
		iters = 80
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		ep := sh.Connect(f.NewNIC(fmt.Sprintf("client%d", c)), false)
		wg.Add(1)
		go func(c int, ep *Endpoint) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			version := make(map[int]int) // key index -> last acked version, -1 deleted
			seq := uint32(0)
			next := func() uint32 { seq++; return seq }
			for i := 0; i < iters; i++ {
				ki := rng.Intn(keysPerClient)
				key := []byte(fmt.Sprintf("c%d-k%d", c, ki))
				switch rng.Intn(4) {
				case 0, 1: // PUT a new version, then read it back
					v, ok := version[ki]
					if !ok || v < 0 {
						v = 0
					}
					v++
					version[ki] = v
					val := []byte(fmt.Sprintf("c%d-k%d#%08d", c, ki, v))
					put := exchange(t, ep, message.Request{Op: message.OpPut, Seq: next(), Key: key, Val: val})
					if put.Status != message.StatusOK {
						t.Errorf("put %s: %+v", key, put)
						return
					}
					get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: next(), Key: key})
					if get.Status != message.StatusOK || string(get.Val) != string(val) {
						t.Errorf("read-your-write %s: want %q, got status=%v val=%q", key, val, get.Status, get.Val)
						return
					}
				case 2: // GET: must match the last acked state exactly
					get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: next(), Key: key})
					v, ok := version[ki]
					switch {
					case !ok || v < 0:
						if get.Status != message.StatusNotFound {
							t.Errorf("get deleted %s: %+v", key, get)
							return
						}
					default:
						want := fmt.Sprintf("c%d-k%d#%08d", c, ki, v)
						if get.Status != message.StatusOK || string(get.Val) != want {
							t.Errorf("get %s: want %q, got status=%v val=%q", key, want, get.Status, get.Val)
							return
						}
					}
				case 3: // DELETE or renew
					if rng.Intn(2) == 0 {
						del := exchange(t, ep, message.Request{Op: message.OpDelete, Seq: next(), Key: key})
						v, ok := version[ki]
						existed := ok && v >= 0
						if existed && del.Status != message.StatusOK {
							t.Errorf("delete %s: %+v", key, del)
							return
						}
						version[ki] = -1
					} else {
						exchange(t, ep, message.Request{Op: message.OpRenewLease, Seq: next(), Key: key})
					}
				}
			}
		}(c, ep)
	}
	wg.Wait()

	snap := sh.Counters.Snapshot()
	t.Logf("read plane: hits=%d torn=%d fallbacks=%d reclaims=%d",
		snap.ReadPlaneHits, snap.ReadPlaneTorn, snap.ReadPlaneFallbacks, snap.Reclaims)
	if snap.ReadPlaneHits == 0 {
		t.Fatal("stress run never exercised the read plane")
	}
	if snap.ReadPlaneFallbacks == 0 {
		t.Fatal("stress run never exercised the fallback path")
	}
}

// TestReadPlaneReclaimsWithoutFallbacks pins the idle housekeeping of the
// event-driven read-plane owner: with no fallback traffic to count towards
// ReclaimEvery, the reclaim ticker alone must free a detached version once
// its lease lapses, and Stop must still wake the blocked loop.
func TestReadPlaneReclaimsWithoutFallbacks(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	sh := New(Config{
		ID:            9,
		NIC:           f.NewNIC("server"),
		ReaderThreads: 1,
		Store: kv.Config{
			ArenaBytes: 1 << 20,
			MaxItems:   4096,
			Policy:     lease.Policy{BaseTermNs: 1e6, MaxShift: 1, GraceNs: 1e6, DecayEpochNs: 1e9},
			Clock:      clk,
		},
	})
	go sh.Run()
	stopped := false
	defer func() {
		if !stopped {
			sh.Stop()
		}
	}()
	ep := sh.Connect(f.NewNIC("client"), false)

	// The second Put detaches the first version; no traffic follows.
	exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("k"), Val: []byte("v1")})
	exchange(t, ep, message.Request{Op: message.OpPut, Seq: 2, Key: []byte("k"), Val: []byte("v2")})
	if n := sh.Store().PendingReclaims(); n != 1 {
		t.Fatalf("pending reclaims after overwrite = %d, want 1", n)
	}
	clk.Advance(1e9) // far past lease expiry plus grace

	deadline := time.Now().Add(5 * time.Second)
	for sh.Counters.Reclaims.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle read-plane owner never reclaimed the detached version")
		}
		time.Sleep(time.Millisecond)
	}
	// The Reclaims increment follows the free pass, so this read is ordered
	// after it.
	if n := sh.Store().PendingReclaims(); n != 0 {
		t.Fatalf("pending reclaims after idle reclaim = %d, want 0", n)
	}

	stopped = true // a hung Stop must not be called again by the defer
	done := make(chan struct{})
	go func() {
		sh.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on the idle read-plane owner did not return")
	}
}

// TestIdleBackoffStateMachine pins the satellite-2 backoff shape: spin phase
// for IdleSpins rounds, then naps doubling from NapNs to the NapMaxNs cap,
// and full reset on progress.
func TestIdleBackoffStateMachine(t *testing.T) {
	b := idleBackoff{spins: 3, napNs: 100, napMaxNs: 800}
	for i := 0; i < 3; i++ {
		if b.idle() {
			t.Fatalf("round %d napped during the spin phase", i)
		}
	}
	wantNaps := []int64{100, 200, 400, 800, 800}
	for i, want := range wantNaps {
		if !b.idle() {
			t.Fatalf("nap round %d did not nap", i)
		}
		if b.nap != want {
			t.Fatalf("nap round %d: nap=%d, want %d", i, b.nap, want)
		}
	}
	b.reset()
	if b.rounds != 0 || b.nap != 0 {
		t.Fatalf("reset did not return to spin phase: %+v", b)
	}
	if b.idle() {
		t.Fatal("first round after reset napped")
	}
}

// TestFreshRequestAfterLongIdle pins that a request arriving after the shard
// has idled all the way to the nap cap is still served promptly — the
// backoff must cap, not grow unboundedly. The bound is deliberately loose
// (scheduler noise) but far below what an uncapped exponential would reach.
func TestFreshRequestAfterLongIdle(t *testing.T) {
	sh, f, _ := testShard(t)
	go sh.Run()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)

	// Warm once, then leave the shard idle long enough to reach the cap:
	// with IdleSpins=64 and NapNs=100 doubling to 1 ms, ~150 ms of idleness
	// is dozens of capped naps.
	exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("idle"), Val: []byte("v")})
	time.Sleep(150 * time.Millisecond)

	start := time.Now()
	get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 2, Key: []byte("idle")})
	elapsed := time.Since(start)
	if get.Status != message.StatusOK {
		t.Fatalf("get after idle: %+v", get)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("fresh request after long idle took %v, want <= 250ms (nap cap is 1ms)", elapsed)
	}
}
