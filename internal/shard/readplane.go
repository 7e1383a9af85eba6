// The parallel read plane (DESIGN.md §13): with Config.ReaderThreads > 0 the
// shard runs N reader goroutines that poll disjoint subsets of the
// connection mailboxes and serve OpGet directly with guardian-validated
// probes (kv.ProbeGet), plus definitive OpRenewLease rejections. Everything
// else — mutations, chained buckets, torn probes, lease renewals — is handed
// to the shard loop over a synchronous channel, so the store keeps exactly
// one mutator and the §4.1.1 ownership discipline holds. The shard loop
// polls nothing in this mode: it blocks on the fallback channel, Stop and a
// reclaim ticker of period NapMaxNs, so a fallback wakes it at once and an
// idle loop still reclaims. Only the readers poll, with idleBackoff.
//
// Ordering guarantee: connection i belongs to reader i%N, and that reader
// writes every response for its connections — including fallback responses,
// which it forwards and then waits for — so per-connection FIFO and the
// mailbox single-writer cursor protocol are preserved exactly as in the
// single-loop shard.
package shard

import (
	"fmt"
	"sync"
	"time"

	"hydradb/internal/invariant"
	"hydradb/internal/kv"
	"hydradb/internal/message"
)

// fallbackReq is the reusable per-reader handoff cell for requests the read
// plane cannot serve. The reader fills body/epoch, sends the cell to the
// shard loop, and blocks on done; the loop runs the ordinary handle() into
// resp and signals back. Strict alternation means zero allocation and at
// most one outstanding fallback per reader.
type fallbackReq struct {
	body  []byte // request bytes, aliasing the mailbox slot (not yet consumed)
	epoch uint32 // routing epoch the reader judged the request against
	resp  []byte // reader-owned response buffer, filled by the shard loop
	n     int    // response length
	done  chan struct{}
}

// runReadPlane is the shard loop in read-plane mode: it owns the store and
// serves only fallback traffic and reclamation, while the readers own the
// mailboxes. Runs on the Run goroutine (ownership already acquired).
func (s *Shard) runReadPlane() {
	nReaders := s.cfg.ReaderThreads
	gate := kv.NewReadGate(nReaders)
	s.store.AttachReadGate(gate)
	fallback := make(chan *fallbackReq, nReaders)
	readersDone := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < nReaders; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			// Registered after the Done defer: deregistration (LIFO) runs
			// first, so once wg.Wait returns the registry entry is gone.
			spawnDone := invariant.Spawned(fmt.Sprintf("shard/%p/reader/%d", s, idx))
			defer spawnDone()
			s.readLoop(idx, nReaders, gate.Slot(idx), fallback)
		}(i)
	}
	go func() {
		wg.Wait()
		close(readersDone)
	}()

	// Nothing to poll: block until a fallback arrives, so the reader (and
	// every connection it owns) never waits out an idle nap. The ticker
	// bounds how long an idle loop goes without reclaiming.
	reclaim := time.NewTicker(time.Duration(s.cfg.NapMaxNs))
	defer reclaim.Stop()
	handledSinceReclaim := 0
	for {
		select {
		case <-s.stop:
			// Readers exit at their next loop top; keep serving fallbacks
			// they may already be blocked on until every reader is gone,
			// then let Run close stopped.
			for {
				select {
				case freq := <-fallback:
					freq.n = s.handle(freq.body, freq.resp, freq.epoch)
					freq.done <- struct{}{}
				case <-readersDone:
					return
				}
			}
		case freq := <-fallback:
			freq.n = s.handle(freq.body, freq.resp, freq.epoch)
			freq.done <- struct{}{}
			handledSinceReclaim++
			if handledSinceReclaim >= s.cfg.ReclaimEvery {
				s.store.ReclaimDue()
				handledSinceReclaim = 0
			}
		case <-reclaim.C:
			s.store.ReclaimDue()
		}
	}
}

// readLoop is one reader goroutine: it polls connections idx, idx+stride, …
// and retires every request on them, either directly or via fallback.
func (s *Shard) readLoop(idx, stride int, slot *kv.ReadSlot, fallback chan<- *fallbackReq) {
	freq := &fallbackReq{
		resp: make([]byte, s.cfg.MailboxBytes),
		done: make(chan struct{}, 1),
	}
	back := s.newBackoff()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		progress := false
		epoch := s.epoch.Load()
		conns := *s.conns.Load()
		for ci := idx; ci < len(conns); ci += stride {
			n := s.drainConnRead(conns[ci], freq, slot, epoch, fallback)
			if n > 0 {
				progress = true
				s.Handled.Add(int64(n))
			}
		}
		if progress {
			back.reset()
			continue
		}
		back.idle()
	}
}

// drainConnRead is the reader-side twin of drainConn: same batching, same
// consume-before-respond slot recycling, but requests route through
// serveRead.
//
// hydralint:hotpath
func (s *Shard) drainConnRead(c *conn, freq *fallbackReq, slot *kv.ReadSlot, epoch uint32, fallback chan<- *fallbackReq) int {
	handled := 0
	if c.sendRecv {
		for handled < c.respBox.Depth() {
			body, ok := c.qp.TryRecv()
			if !ok {
				break
			}
			n := s.serveRead(body, freq, slot, epoch, fallback)
			//hydralint:ignore error-discipline response to a vanished client; nothing to do but serve the next mailbox
			_ = c.qp.Send(freq.resp[:n])
			handled++
		}
		return handled
	}
	for handled < c.reqBox.Depth() {
		body, seq, ok := c.reqBox.Poll()
		if !ok {
			break
		}
		n := s.serveRead(body, freq, slot, epoch, fallback)
		c.reqBox.Consume()
		//hydralint:ignore error-discipline response to a vanished client; nothing to do but serve the next mailbox
		_ = c.respBox.WriteVia(c.qp, freq.resp[:n], seq)
		handled++
	}
	return handled
}

// serveRead retires one request: pure reads are answered from the probe
// surface, everything else goes through the fallback handoff. The response
// is always left in freq.resp.
//
// hydralint:hotpath
func (s *Shard) serveRead(body []byte, freq *fallbackReq, slot *kv.ReadSlot, epoch uint32, fallback chan<- *fallbackReq) int {
	req, err := message.DecodeRequest(body)
	if err != nil {
		resp := message.Response{Epoch: epoch, Status: message.StatusError}
		return resp.EncodeTo(freq.resp)
	}
	if req.Epoch != epoch {
		resp := message.Response{Epoch: epoch, Seq: req.Seq, Status: message.StatusWrongShard}
		return resp.EncodeTo(freq.resp)
	}
	if req.Op == message.OpGet || req.Op == message.OpRenewLease {
		if n, ok := s.tryProbe(req, freq, slot, epoch); ok {
			return n
		}
	}
	// Mutations, chained buckets, torn probes, renewals of live leases: the
	// single-writer shard loop. The reader blocks — at most one fallback in
	// flight per reader — which preserves per-connection response order.
	freq.body = body
	freq.epoch = epoch
	fallback <- freq
	<-freq.done
	s.Counters.ReadPlaneFallbacks.Inc()
	return freq.n
}

// tryProbe answers OpGet (hit or definitive miss) and OpRenewLease
// definitive rejections from the probe surface. ok=false defers to the
// shard loop. A torn probe — one that raced a slot flip or detach — is
// retried once: the store settles in a handful of instructions, so a second
// probe usually serves the request without burdening the shard loop.
//
// hydralint:hotpath
func (s *Shard) tryProbe(req message.Request, freq *fallbackReq, slot *kv.ReadSlot, epoch uint32) (int, bool) {
	wantVal := req.Op == message.OpGet
	for attempt := 0; attempt < 2; attempt++ {
		n := 0
		st := s.store.ProbeGet(slot, req.Key, func(val []byte, ptr kv.RemotePtr, leaseExp int64) {
			if !wantVal {
				return
			}
			// Encode inside the probe section: val aliases the arena and is
			// only pinned until ProbeGet returns.
			resp := message.Response{
				Epoch:    epoch,
				Seq:      req.Seq,
				Status:   message.StatusOK,
				Val:      val,
				LeaseExp: leaseExp,
				Ptr:      ptr,
			}
			resp.Ptr.ShardID = s.id
			n = resp.EncodeTo(freq.resp)
		})
		switch st {
		case kv.ProbeHit:
			if !wantVal {
				// The key exists: renewing its lease mutates the lease word
				// and popularity, which only the shard loop may do.
				return 0, false
			}
			s.Counters.ReadPlaneHits.Inc()
			s.Counters.Gets.Inc()
			return n, true
		case kv.ProbeMiss:
			s.Counters.ReadPlaneHits.Inc()
			if wantVal {
				s.Counters.Gets.Inc()
			} else {
				s.Counters.LeaseRejects.Inc()
			}
			resp := message.Response{Epoch: epoch, Seq: req.Seq, Status: message.StatusNotFound}
			return resp.EncodeTo(freq.resp), true
		case kv.ProbeTorn:
			s.Counters.ReadPlaneTorn.Inc()
		case kv.ProbeFallback:
			return 0, false
		}
	}
	return 0, false
}
