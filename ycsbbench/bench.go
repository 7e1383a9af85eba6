package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hydradb"
	"hydradb/internal/kv"
	"hydradb/internal/stats"
	"hydradb/internal/ycsb"
)

// deployment is one running cluster and the benchmark's clients on it.
type deployment struct {
	db      *hydradb.DB
	opts    hydradb.Options
	clients [numClients]*hydradb.Client
}

// setup starts w's deployment and loads every record, with the clients
// splitting the keys. It returns the time both took.
func setup(w workload, s *stream) (*deployment, time.Duration, error) {
	t0 := time.Now()
	db, err := hydradb.Start(w.opts)
	if err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", w.name, err)
	}
	d := &deployment{db: db, opts: w.opts}
	// Start reads zero machine counts as 1.
	d.opts.ClientMachines = max(d.opts.ClientMachines, 1)
	d.opts.ServerMachines = max(d.opts.ServerMachines, 1)
	for c := range d.clients {
		d.clients[c] = db.NewClient()
	}
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := make([]byte, s.gen.Spec.KeyLen)
			val := make([]byte, valueLen)
			for k := int64(c); k < w.records; k += numClients {
				if err := d.clients[c].Put(s.gen.KeyInto(key, k), encodeValue(val, k, loaderID, 1)); err != nil {
					errs[c] = fmt.Errorf("load key %d: %w", k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		db.Close()
		return nil, 0, err
	}
	return d, elapsed, nil
}

// Call kinds and, in a traced phase, the access path a call took.
const (
	kindGet = iota
	kindPut
	kindBatch
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "batch"}

const (
	pathHit     = iota // one-sided RDMA Read validated by the guardian
	pathStale          // cached pointer's lease expired or its read failed validation, then a message GET
	pathMessage        // no usable pointer: message GET
	pathPut            // message PUT
	pathMulti          // pipelined MultiGet
	numPaths
)

var pathNames = [numPaths]string{"get_hit", "get_stale", "get_message", "put", "multiget"}

// phaseResult is what the clients measured in one closed-loop phase.
type phaseResult struct {
	dur        time.Duration // timed length; the sum over pooled phases
	window     time.Duration
	start, end int64   // Unix ns bounds of the timed windows
	all        hist    // latency of every call
	winOps     []int64 // completed operations per window
	kinds      [numKinds]hist
	paths      [numPaths]hist // traced phases only
	attempted  int64
	failed     int64
	errs       []error // first few failures, for the log
	spans      []span
	dropped    int64 // spans that did not fit the buffer
	before     snapshot
	after      snapshot
}

// pool appends another phase's windows and merges its call histograms.
func (p *phaseResult) pool(o *phaseResult) {
	p.dur += o.dur
	p.window = o.window
	p.all.merge(&o.all)
	p.winOps = append(p.winOps, o.winOps...)
	for i := range p.kinds {
		p.kinds[i].merge(&o.kinds[i])
	}
}

// windowRates is completed operations per second in each window.
func (p *phaseResult) windowRates() []float64 {
	rates := make([]float64, len(p.winOps))
	for i, o := range p.winOps {
		rates[i] = float64(o) / p.window.Seconds()
	}
	return rates
}

// ops is the number of client operations completed in the timed windows.
func (p *phaseResult) ops() int64 {
	var n int64
	for _, o := range p.winOps {
		n += o
	}
	return n
}

// opsPerSecond is completed operations per second of timed phase.
func (p *phaseResult) opsPerSecond() float64 { return float64(p.ops()) / p.dur.Seconds() }

// phase runs the closed loop: every client issues its next call as soon as
// the previous one returns, until its own clock passes the end of the phase.
// Calls that finish during the warm-up are checked but not measured.
type phase struct {
	w       workload
	s       *stream
	o       *oracle
	d       *deployment
	warmup  time.Duration
	dur     time.Duration
	window  time.Duration
	traced  bool
	spanCap int              // per client, traced phases only
	pos     *[numClients]int // each client's next stream position
	tracer  *tracer
}

func (ph *phase) run() *phaseResult {
	nWin := max(int(ph.dur/ph.window), 1)
	base := time.Now()
	start := ph.warmup.Nanoseconds()
	end := start + ph.dur.Nanoseconds()
	res := &phaseResult{dur: ph.dur, window: ph.window, start: base.UnixNano() + start, end: base.UnixNano() + end,
		winOps: make([]int64, nWin)}
	loops := make([]*loop, numClients)
	var wg sync.WaitGroup
	for c := range loops {
		l := newLoop(ph, c, base, nWin)
		loops[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(start, end)
		}()
	}
	sleepUntil(base, start)
	res.before = takeSnapshot(ph.d)
	sleepUntil(base, end)
	res.after = takeSnapshot(ph.d)
	wg.Wait()

	for _, l := range loops {
		m := &l.res
		if ph.traced {
			ph.tracer.add(span{id: l.root, name: "client.phase", start: res.start, end: res.end})
		}
		res.all.merge(&m.all)
		for i := range m.winOps {
			res.winOps[i] += m.winOps[i]
		}
		for i := range m.kinds {
			res.kinds[i].merge(&m.kinds[i])
		}
		for i := range m.paths {
			res.paths[i].merge(&m.paths[i])
		}
		res.attempted += m.attempted
		res.failed += m.failed
		res.errs = append(res.errs, m.errs...)
		res.spans = append(res.spans, m.spans...)
		res.dropped += m.dropped
		ph.pos[l.c] = l.pos
	}
	return res
}

func sleepUntil(base time.Time, at int64) {
	if d := time.Duration(at) - time.Since(base); d > 0 {
		time.Sleep(d)
	}
}

// loop is one closed-loop client of a phase: it resumes its walk through the
// stream where the previous phase left it, and measures into its own result.
type loop struct {
	ph    *phase
	c     int
	cli   *hydradb.Client
	base  time.Time
	pos   int
	root  uint64 // span id of this client's phase, traced phases only
	calls uint64
	res   phaseResult

	keys  [][]byte
	idxs  []int64
	snaps [][numWriters]uint64
	val   []byte
	got   []byte
}

func newLoop(ph *phase, c int, base time.Time, nWin int) *loop {
	n := max(ph.w.batch, 1)
	l := &loop{ph: ph, c: c, cli: ph.d.clients[c], base: base, pos: ph.pos[c],
		keys: make([][]byte, n), idxs: make([]int64, n), snaps: make([][numWriters]uint64, n),
		val: make([]byte, valueLen), got: make([]byte, 0, 2*valueLen)}
	for i := range l.keys {
		l.keys[i] = make([]byte, ph.s.gen.Spec.KeyLen)
	}
	l.res.winOps = make([]int64, nWin)
	if ph.traced {
		l.root = ph.tracer.newID()
		l.res.spans = make([]span, 0, ph.spanCap)
	}
	return l
}

func (l *loop) now() int64 { return int64(time.Since(l.base)) }

func (l *loop) next() ycsb.Request {
	r := l.ph.s.gen.Requests[l.pos]
	l.pos += numClients
	if l.pos >= len(l.ph.s.gen.Requests) {
		l.pos = l.c
	}
	return r
}

func (l *loop) fail(err error) {
	l.res.failed++
	if len(l.res.errs) < 4 {
		l.res.errs = append(l.res.errs, err)
	}
}

// run issues calls until one returns after end; calls returning before
// start are the warm-up.
func (l *loop) run(start, end int64) {
	win := l.ph.window.Nanoseconds()
	for {
		var kind, path, nops int
		var t0, t1 int64
		if l.ph.w.batch > 0 {
			kind, path, nops = kindBatch, pathMulti, l.ph.w.batch
			t0, t1 = l.multiGet()
		} else if r := l.next(); r.Op == ycsb.OpUpdate {
			kind, path, nops = kindPut, pathPut, 1
			t0, t1 = l.put(r.KeyIdx)
		} else {
			kind, nops = kindGet, 1
			t0, t1, path = l.get(r.KeyIdx)
		}
		l.res.attempted += int64(nops)
		l.calls++
		if t1 >= end {
			return
		}
		if t1 < start {
			continue
		}
		l.res.all.record(t1 - t0)
		l.res.winOps[min(int((t1-start)/win), len(l.res.winOps)-1)] += int64(nops)
		l.res.kinds[kind].record(t1 - t0)
		if l.ph.traced {
			l.trace(path, t0, t1)
		}
	}
}

// trace records the call as a span under the client's phase span.
func (l *loop) trace(path int, t0, t1 int64) {
	l.res.paths[path].record(t1 - t0)
	if len(l.res.spans) == cap(l.res.spans) {
		l.res.dropped++
		return
	}
	base := l.base.UnixNano()
	l.res.spans = append(l.res.spans, span{id: l.ph.tracer.newID(), parent: l.root,
		req: uint64(l.c)<<40 | l.calls, name: pathNames[path], start: base + t0, end: base + t1})
}

func (l *loop) put(k int64) (t0, t1 int64) {
	key := l.ph.s.gen.KeyInto(l.keys[0], k)
	tk := l.ph.o.begin(l.c, k)
	t0 = l.now()
	err := l.cli.Put(key, encodeValue(l.val, k, l.c, tk.seq))
	t1 = l.now()
	if err != nil {
		l.fail(fmt.Errorf("put key %d: %w", k, err))
	} else {
		l.ph.o.ack(l.c, tk)
	}
	return t0, t1
}

// get also reports the access path the GET took, from the client's own
// counters around the call.
func (l *loop) get(k int64) (t0, t1 int64, path int) {
	key := l.ph.s.gen.KeyInto(l.keys[0], k)
	ctr := l.cli.Counters()
	hits, stale := ctr.RDMAReadHits.Load(), ctr.RDMAReadStale.Load()
	snap := l.ph.o.snapshot(k)
	t0 = l.now()
	v, err := l.cli.GetInto(key, l.got[:0])
	t1 = l.now()
	switch {
	case errors.Is(err, hydradb.ErrNotFound):
		l.fail(fmt.Errorf("%w: key %d", errMissing, k))
	case err != nil:
		l.fail(fmt.Errorf("get key %d: %w", k, err))
	default:
		if cerr := l.ph.o.check(k, v, snap); cerr != nil {
			l.fail(cerr)
		}
	}
	switch {
	case ctr.RDMAReadHits.Load() != hits:
		path = pathHit
	case ctr.RDMAReadStale.Load() != stale:
		path = pathStale
	default:
		path = pathMessage
	}
	return t0, t1, path
}

func (l *loop) multiGet() (t0, t1 int64) {
	for i := range l.keys {
		r := l.next()
		l.idxs[i] = r.KeyIdx
		l.keys[i] = l.ph.s.gen.KeyInto(l.keys[i], r.KeyIdx)
		l.snaps[i] = l.ph.o.snapshot(r.KeyIdx)
	}
	t0 = l.now()
	vals, err := l.cli.MultiGet(l.keys)
	t1 = l.now()
	for i, v := range vals {
		switch {
		case v != nil:
			if cerr := l.ph.o.check(l.idxs[i], v, l.snaps[i]); cerr != nil {
				l.fail(cerr)
			}
		case err != nil:
			l.fail(err)
		default:
			l.fail(fmt.Errorf("%w: key %d", errMissing, l.idxs[i]))
		}
	}
	return t0, t1
}

// snapshot holds the counters read from outside the program at a phase
// boundary.
type snapshot struct {
	client     stats.OpSnapshot
	server     stats.OpSnapshot
	clientOps  int64
	clientByte int64
	serverOps  int64
	serverByte int64
	secApplied int64
	rollbacks  int64
	numGC      uint32
	alloc      uint64
}

func takeSnapshot(d *deployment) snapshot {
	var s snapshot
	for _, c := range d.clients {
		s.client.Add(c.Counters().Snapshot())
	}
	s.server = d.db.Stats()
	cl := d.db.Cluster()
	for i := 0; i < d.opts.ClientMachines; i++ {
		s.clientOps += cl.ClientNIC(i).Ops.Load()
		s.clientByte += cl.ClientNIC(i).Bytes.Load()
	}
	for i := 0; i < d.opts.ServerMachines; i++ {
		s.serverOps += cl.ServerNIC(i).Ops.Load()
		s.serverByte += cl.ServerNIC(i).Bytes.Load()
	}
	s.secApplied = cl.SecondaryAppliedTotal()
	for _, id := range cl.ShardIDs() {
		if sh := cl.Shard(id); sh != nil && sh.Primary() != nil {
			s.rollbacks += sh.Primary().Rollbacks.Load()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.numGC, s.alloc = ms.NumGC, ms.TotalAlloc
	return s
}

// storeState is what the shards' stores hold once the deployment is closed.
type storeState struct {
	pending      int
	arenaLive    int
	liveBytes    int
	mainBuckets  int
	overflow     int
	final        []byte // records × valueLen, the value each key ended with
	present      []bool
	unexpected   int // items that are no loaded key's, or a key's second copy
	replicaDiffs int // items on which a secondary differs from its primary
}

// inspect reads every store after db.Close, when no shard goroutine runs.
func inspect(d *deployment, records int64) (*storeState, error) {
	st := &storeState{final: make([]byte, records*valueLen), present: make([]bool, records)}
	cl := d.db.Cluster()
	for _, id := range cl.ShardIDs() {
		sh := cl.Shard(id)
		if sh == nil {
			return nil, fmt.Errorf("shard %d has no primary", id)
		}
		store := sh.Store()
		st.pending += store.PendingReclaims()
		st.arenaLive += store.ArenaLive()
		st.mainBuckets += store.Table().MainBuckets()
		st.overflow += store.Table().OverflowBuckets()
		store.Range(func(k, v []byte) bool {
			st.liveBytes += len(k) + len(v)
			idx, err := keyIndex(k, records)
			if err != nil || st.present[idx] {
				st.unexpected++
				return true
			}
			st.present[idx] = true
			if len(v) == valueLen { // any other length stays zeroed: a torn value
				copy(st.final[idx*valueLen:], v)
			}
			return true
		})
		for _, sec := range cl.SecondaryStores(id) {
			st.replicaDiffs += diffReplica(store, sec)
		}
	}
	return st, nil
}

// diffReplica counts the keys on which a secondary store's contents differ
// from its primary's, in either direction.
func diffReplica(primary, secondary *kv.Store) int {
	want := make(map[string]string, primary.Len())
	primary.Range(func(k, v []byte) bool {
		want[string(k)] = string(v)
		return true
	})
	diffs := 0
	secondary.Range(func(k, v []byte) bool {
		if pv, ok := want[string(k)]; !ok || pv != string(v) {
			diffs++
		}
		delete(want, string(k))
		return true
	})
	return diffs + len(want)
}

// keyIndex parses a "user%012d" key back to its record index.
func keyIndex(k []byte, records int64) (int64, error) {
	if len(k) < 5 || string(k[:4]) != "user" {
		return 0, fmt.Errorf("malformed key %q", k)
	}
	idx, err := strconv.ParseInt(string(k[4:]), 10, 64)
	if err != nil || idx < 0 || idx >= records {
		return 0, fmt.Errorf("malformed key %q", k)
	}
	return idx, nil
}
