package main

import (
	"fmt"
	"time"

	"hydradb/internal/arena"
	"hydradb/internal/client"
	"hydradb/internal/consistent"
	"hydradb/internal/hashtable"
	"hydradb/internal/hashx"
	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/replication"
	"hydradb/internal/timing"
	"hydradb/internal/ycsb"
)

// The layer replay times each layer's public functions on the workload's
// own key stream, outside the running deployment, so nothing else competes
// for the cores. Calls run in batches; each batch is one span, and a
// layer's time is the median over batches of time per call.
const (
	replayCalls  = 1 << 15 // distinct stream requests replayed per layer
	replayBatch  = 256
	replayRounds = 3
)

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink struct {
	n int
	u uint64
	b bool
}

type replayer struct {
	tr  *tracer
	out map[string]float64 // metric name → median ns per call
	err error              // first failed replayed call
}

// check records the first error a replayed call returns.
func (r *replayer) check(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// time replays fn over [0, n) and records the median ns per call as name.
func (r *replayer) time(name string, n int, fn func(i int)) {
	root := r.tr.newID()
	rootStart := time.Now().UnixNano()
	var perCall []float64
	for round := 0; round < replayRounds; round++ {
		for lo := 0; lo < n; lo += replayBatch {
			hi := min(lo+replayBatch, n)
			t0 := time.Now().UnixNano()
			for i := lo; i < hi; i++ {
				fn(i)
			}
			t1 := time.Now().UnixNano()
			r.tr.add(span{id: r.tr.newID(), parent: root, name: name, start: t0, end: t1})
			perCall = append(perCall, float64(t1-t0)/float64(hi-lo))
		}
	}
	r.tr.add(span{id: root, name: "replay." + name, start: rootStart, end: time.Now().UnixNano()})
	r.out[name] = median(perCall)
}

// replayInput is what the replay needs from the finished run.
type replayInput struct {
	w     workload
	s     *stream
	cache client.PtrCache // client 0's pointer cache at the end of the run
	ring  *consistent.Ring
	shard uint32 // the shard whose keys the standalone store holds
}

// replayLayers times every layer and returns the median ns per call by
// metric name.
func replayLayers(in replayInput, tr *tracer) (map[string]float64, error) {
	r := &replayer{tr: tr, out: make(map[string]float64)}
	gen := in.s.gen
	reqs := gen.Requests[:min(replayCalls, len(gen.Requests))]
	keys := make([][]byte, len(reqs))
	strKeys := make([]string, len(reqs))
	vals := make([][]byte, len(reqs))
	for i, q := range reqs {
		keys[i] = gen.Key(q.KeyIdx)
		strKeys[i] = string(keys[i])
		vals[i] = encodeValue(make([]byte, valueLen), q.KeyIdx, 0, uint64(i+1))
	}

	r.time("lfmap.get_ns", len(reqs), func(i int) {
		_, sink.b = in.cache.Get(strKeys[i])
	})
	r.time("consistent.lookup_ns", len(reqs), func(i int) {
		sink.u = uint64(in.ring.OwnerOfKey(keys[i]))
	})

	// Codecs at workload sizes: a GET carries the key, an UPDATE the key and
	// value; GET responses carry the value and a remote pointer.
	reqMsg := func(i int) message.Request {
		m := message.Request{Op: message.OpGet, Seq: uint32(i), Epoch: 1, Key: keys[i]}
		if reqs[i].Op == ycsb.OpUpdate {
			m.Op, m.Val = message.OpPut, vals[i]
		}
		return m
	}
	buf := make([]byte, 256)
	r.time("message.request_codec_ns", len(reqs), func(i int) {
		m := reqMsg(i)
		n := m.EncodeTo(buf)
		_, err := message.DecodeRequest(buf[:n])
		r.check(err)
	})
	r.time("message.response_codec_ns", len(reqs), func(i int) {
		m := message.Response{Status: message.StatusOK, Seq: uint32(i), Epoch: 1, LeaseExp: int64(i),
			Ptr: kv.RemotePtr{ShardID: 1, DataOff: uint32(i), DataLen: 64, MetaIdx: uint32(i)}}
		if reqs[i].Op != ycsb.OpUpdate {
			m.Val = vals[i]
		}
		n := m.EncodeTo(buf)
		_, err := message.DecodeResponse(buf[:n])
		r.check(err)
	})

	// Mailbox ring and indicated writes over a standalone queue-pair.
	const slotCap, depth = 256, 16
	fab := rdma.NewFabric(rdma.Config{})
	cliNIC, srvNIC := fab.NewNIC("client"), fab.NewNIC("server")
	qp, _ := rdma.Connect(cliNIC, srvNIC, depth)
	boxMR := srvNIC.Register(make([]byte, slotCap*depth), arena.NewWordArea(depth, 2))
	box := message.NewRing(boxMR, 0, slotCap, depth, 0)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		m := reqMsg(i)
		bodies[i] = make([]byte, m.EncodedSize())
		m.EncodeTo(bodies[i])
	}
	r.time("message.mailbox_ns", len(reqs), func(i int) {
		if err := box.WriteVia(qp, bodies[i], uint32(i)); err != nil {
			r.check(err)
			return
		}
		if _, _, ok := box.Poll(); !ok {
			r.check(fmt.Errorf("mailbox: message %d not delivered", i))
			return
		}
		box.Consume()
	})
	r.time("rdma.write_indicated_ns", len(reqs), func(i int) {
		r.check(qp.WriteIndicated(boxMR, 0, bodies[i], 1, 0, uint64(i)|1<<63))
	})

	if err := replayStore(r, in, reqs, keys, vals); err != nil {
		return nil, err
	}
	if err := replayReplication(r, in, keys, vals); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, fmt.Errorf("layer replay: %w", r.err)
	}
	return r.out, nil
}

// replayStore loads a standalone store with the shard's config and the keys
// the ring gives that shard, then times reads and writes of the stream's
// requests for those keys.
func replayStore(r *replayer, in replayInput, reqs []ycsb.Request, keys, vals [][]byte) error {
	store := kv.NewStore(kv.Config{
		ArenaBytes: in.w.opts.ArenaBytesPerShard,
		MaxItems:   in.w.opts.MaxItemsPerShard,
		Clock:      timing.NewRealClock(),
	})
	val := make([]byte, valueLen)
	key := make([]byte, in.s.gen.Spec.KeyLen)
	for k := int64(0); k < in.w.records; k++ {
		key = in.s.gen.KeyInto(key, k)
		if in.ring.OwnerOfKey(key) != in.shard {
			continue
		}
		if _, _, err := store.Put(key, encodeValue(val, k, loaderID, 1)); err != nil {
			return fmt.Errorf("replay store load: %w", err)
		}
	}
	var mine []int // stream positions whose key the store holds
	for i := range reqs {
		if in.ring.OwnerOfKey(keys[i]) == in.shard {
			mine = append(mine, i)
		}
	}
	if len(mine) == 0 {
		return fmt.Errorf("replay: no stream key maps to shard %d", in.shard)
	}
	ptrs := make([]kv.RemotePtr, len(mine))
	for j, i := range mine {
		res, ok := store.Get(keys[i])
		if !ok {
			return fmt.Errorf("replay store lost key %q", keys[i])
		}
		ptrs[j] = res.Ptr
	}

	fab := rdma.NewFabric(rdma.Config{})
	cliNIC, srvNIC := fab.NewNIC("client"), fab.NewNIC("server")
	qp, _ := rdma.Connect(cliNIC, srvNIC, 16)
	mr := srvNIC.Register(store.ArenaData(), store.Words())
	dst := make([]byte, 256)
	var words [2]uint64
	r.time("rdma.read_ns", len(mine), func(j int) {
		p := ptrs[j]
		n, err := qp.ReadInto(mr, int(p.DataOff), dst[:p.DataLen], words[:], int(p.MetaIdx), int(p.MetaIdx)+1)
		sink.n = n
		r.check(err)
	})
	r.time("kv.readat_ns", len(mine), func(j int) {
		n, guardian, _, err := store.ReadAt(ptrs[j], dst)
		sink.n, sink.u = n, guardian
		r.check(err)
	})
	r.time("kv.get_ns", len(mine), func(j int) {
		_, sink.b = store.Get(keys[mine[j]])
	})
	var cands [hashtable.SlotsPerBucket]uint64
	r.time("hashtable.probe_root_ns", len(mine), func(j int) {
		sink.n, sink.b = store.Table().ProbeRoot(hashx.Hash(keys[mine[j]]), &cands)
	})
	gate := kv.NewReadGate(1)
	store.AttachReadGate(gate)
	slot := gate.Slot(0)
	visit := func(val []byte, _ kv.RemotePtr, _ int64) { sink.n = len(val) }
	r.time("kv.probeget_ns", len(mine), func(j int) {
		sink.n = int(store.ProbeGet(slot, keys[mine[j]], visit))
	})
	// Updates last: they move items, which invalidates ptrs.
	r.time("kv.put_ns", len(mine), func(j int) {
		_, _, err := store.Put(keys[mine[j]], vals[mine[j]])
		r.check(err)
	})
	return nil
}

// replayReplication times Primary.Replicate and Secondary.PollOnce on a
// standalone primary/secondary pair whose secondary applies into a store
// with the shard's config.
func replayReplication(r *replayer, in replayInput, keys, vals [][]byte) error {
	store := kv.NewStore(kv.Config{
		ArenaBytes: in.w.opts.ArenaBytesPerShard,
		MaxItems:   in.w.opts.MaxItemsPerShard,
		Clock:      timing.NewRealClock(),
	})
	cfg := replication.LogConfig{}
	fab := rdma.NewFabric(rdma.Config{})
	pNIC, sNIC := fab.NewNIC("primary"), fab.NewNIC("secondary")
	primary := replication.NewPrimary(pNIC, cfg, 1)
	qpP, qpS := rdma.Connect(pNIC, sNIC, 16)
	log := replication.NewLog(sNIC, cfg)
	ackIdx, err := primary.AddSecondary(qpP, log)
	if err != nil {
		return fmt.Errorf("replay replication: %w", err)
	}
	sec := replication.NewSecondary(log, replication.ApplierFunc(func(_ uint64, rec replication.Record) error {
		_, _, err := store.Put(rec.Key, rec.Val)
		return err
	}), qpS, primary.AckRegion(), ackIdx)

	// Records in flight stay below the ring's capacity, so Replicate never
	// waits for the secondary inside a timed batch.
	const batch = 64
	n := len(keys) - len(keys)%batch
	rec := func(i int) replication.Record {
		return replication.Record{Op: message.OpPut, Key: keys[i], Val: vals[i]}
	}
	root := r.tr.newID()
	rootStart := time.Now().UnixNano()
	var repl, apply []float64
	for round := 0; round < replayRounds; round++ {
		for lo := 0; lo < n; lo += batch {
			t0 := time.Now().UnixNano()
			for i := lo; i < lo+batch; i++ {
				if err := primary.Replicate(rec(i)); err != nil {
					return fmt.Errorf("replay replicate: %w", err)
				}
			}
			t1 := time.Now().UnixNano()
			want := primary.Seq()
			for spins := 0; sec.AppliedSeq() < want; spins++ {
				if !sec.PollOnce() && spins > 1<<20 {
					return fmt.Errorf("replay apply: secondary stuck at %d of %d", sec.AppliedSeq(), want)
				}
			}
			t2 := time.Now().UnixNano()
			primary.PollAcksOnce()
			r.tr.add(span{id: r.tr.newID(), parent: root, name: "replication.replicate_ns", start: t0, end: t1})
			r.tr.add(span{id: r.tr.newID(), parent: root, name: "replication.apply_ns", start: t1, end: t2})
			repl = append(repl, float64(t1-t0)/batch)
			apply = append(apply, float64(t2-t1)/batch)
		}
	}
	r.tr.add(span{id: root, name: "replay.replication", start: rootStart, end: time.Now().UnixNano()})
	r.out["replication.replicate_ns"] = median(repl)
	r.out["replication.apply_ns"] = median(apply)
	return nil
}
