// Package lfmap provides the lock-free hash map backing HydraDB's shared
// remote-pointer cache (paper §4.2.4).
//
// When many client processes are collocated on one machine, they share one
// pointer cache so that a single invalidation (guardian flip observed by any
// client) is seen by all of them, avoiding the cascade of stale RDMA Reads
// the paper describes. The original system uses Michael's dynamic lock-free
// hash table; this one is a growable open-addressed table in the style of
// Click's non-blocking hash map, because it needs no tagged pointers:
//
//   - A table is a power-of-two array of atomic entry pointers probed
//     linearly. A slot changes at most once: nil→entry on insert, or
//     nil→moved when a migration closes it. Entries are never unlinked;
//     deletion is logical (the entry's value goes nil) and a later Put
//     revives the same entry.
//   - An insert that would take a table past half load CASes a 2× successor
//     onto table.next instead. Migration is cooperative and idempotent:
//     every Put that finds the oldest table migrating copies one chunk of
//     its slots forward — an entry by inserting the same entry pointer into
//     the successor, an empty slot by CASing it nil→moved — and the chunk
//     that completes the copy retires the old table.
//   - Readers and inserters that meet moved continue in the successor. A key
//     is inserted into a successor only after moved was seen on its probe
//     path, so a key has at most one entry across all tables, and a value
//     swap or invalidation made through any table is seen through all.
//
// Get, Put, Delete, CompareAndDelete, Range and Len are lock-free: none of
// them waits for another goroutine, a stalled migrator included (it only
// keeps the old table in the probe chain longer). Get never writes shared
// memory. Heap grows with the key population: tables hold between a quarter
// and a half of their slots, and a retired table is garbage once no
// in-flight operation still probes it.
package lfmap

import (
	"sync/atomic"

	"hydradb/internal/hashx"
)

const (
	minSlots   = 64   // first table's size
	chunkSlots = 1024 // slots one helper copies forward per Put
)

// keyT lets string and []byte callers share one implementation: in the
// []byte instantiation, string(key) == e.key compares without allocating.
type keyT interface{ string | []byte }

type entry[V any] struct {
	hash uint64
	key  string
	val  atomic.Pointer[V] // nil while deleted
}

type table[V any] struct {
	slots   []atomic.Pointer[entry[V]]
	mask    uint64
	used    atomic.Int64 // slots holding, or reserved for, an entry
	next    atomic.Pointer[table[V]]
	claimed atomic.Int64 // migration chunks handed out
	copied  atomic.Int64 // migration chunks finished
}

func newTable[V any](n int) *table[V] {
	return &table[V]{slots: make([]atomic.Pointer[entry[V]], n), mask: uint64(n - 1)}
}

// Map is a concurrent hash map from string keys to *V values. All methods
// are safe for arbitrary concurrency and never take locks.
type Map[V any] struct {
	head  atomic.Pointer[table[V]] // oldest table not yet retired
	moved *entry[V]                // sentinel closing migrated empty slots
	live  atomic.Int64
}

// raceHook, when a test sets it, runs between an inserter's capacity check
// and its CAS into an empty slot: the window a concurrent migration must
// not let an insert fall through.
var raceHook func()

// New creates an empty map; it grows with its population.
func New[V any]() *Map[V] {
	m := &Map[V]{moved: new(entry[V])}
	m.head.Store(newTable[V](minSlots))
	return m
}

// find probes t for key. It returns the key's entry, or nil with moved
// reporting whether the probe met a closed slot (the key, if anywhere, is in
// a successor) rather than an empty one (the key is absent).
func find[V any, K keyT](m *Map[V], t *table[V], h uint64, key K) (e *entry[V], moved bool) {
	for i := uint64(0); i <= t.mask; i++ {
		e := t.slots[(h+i)&t.mask].Load()
		switch {
		case e == nil:
			return nil, false
		case e == m.moved:
			return nil, true
		case e.hash == h && e.key == string(key):
			return e, false
		}
	}
	return nil, false // unreachable: a table is never more than half full
}

func lookup[V any, K keyT](m *Map[V], h uint64, key K) *entry[V] {
	for t := m.head.Load(); t != nil; t = t.next.Load() {
		if e, moved := find(m, t, h, key); !moved {
			return e
		}
	}
	return nil
}

// place returns key's entry in the probe chain starting at t. A key without
// one gets ins — or, when ins is nil, a new entry holding v — and inserted
// reports that. Migration calls it with ins set to the entry it copies, so
// the same pointer lands in the successor.
func place[V any, K keyT](m *Map[V], t *table[V], h uint64, key K, ins *entry[V], v *V) (e *entry[V], inserted bool) {
	for t != nil {
		var next *table[V]
		for i := uint64(0); i <= t.mask; i++ {
			s := &t.slots[(h+i)&t.mask]
			e := s.Load()
			if e == nil {
				if ins == nil {
					ins = &entry[V]{hash: h, key: string(key)}
					ins.val.Store(v)
				}
				if e = m.claim(t, s, ins); e == ins {
					return ins, true
				}
			}
			if e == m.moved {
				next = t.next.Load()
				break
			}
			if e.hash == h && e.key == string(key) {
				return e, false
			}
		}
		t = next
	}
	panic("lfmap: probe chain ended without a slot") // a closed slot always has a successor
}

// claim tries to install ins in the empty slot s of t and returns what s
// holds afterwards: ins, a racing entry, or moved. An insert that would take
// t past half load starts t's migration instead; an empty slot of a
// migrating table is closed (nil→moved), sending the insert on to the
// successor.
func (m *Map[V]) claim(t *table[V], s *atomic.Pointer[entry[V]], ins *entry[V]) *entry[V] {
	if t.next.Load() == nil {
		if t.used.Add(1) <= int64(len(t.slots)/2) {
			if raceHook != nil {
				raceHook()
			}
			if s.CompareAndSwap(nil, ins) {
				return ins
			}
			t.used.Add(-1)
			return s.Load()
		}
		t.used.Add(-1)
		t.next.CompareAndSwap(nil, newTable[V](2*len(t.slots)))
	}
	s.CompareAndSwap(nil, m.moved)
	return s.Load()
}

// help copies one unclaimed chunk of the oldest table forward when that
// table is migrating, and retires it once every chunk is copied. A helper
// that stalls mid-chunk delays the retirement, never another operation.
func (m *Map[V]) help() {
	t := m.head.Load()
	n := t.next.Load()
	if n == nil {
		return
	}
	chunks := int64((len(t.slots) + chunkSlots - 1) / chunkSlots)
	if t.claimed.Load() >= chunks {
		return
	}
	c := t.claimed.Add(1) - 1
	if c >= chunks {
		return
	}
	hi := min(int(c+1)*chunkSlots, len(t.slots))
	for i := int(c) * chunkSlots; i < hi; i++ {
		m.migrate(t, n, i)
	}
	if t.copied.Add(1) == chunks {
		m.head.CompareAndSwap(t, n)
	}
}

// migrate moves slot i of t into its successor n: an entry is copied forward
// as the same pointer, an empty slot is closed. Both steps are idempotent, so
// helpers racing on one slot agree.
func (m *Map[V]) migrate(t, n *table[V], i int) {
	s := &t.slots[i]
	e := s.Load()
	if e == nil {
		if s.CompareAndSwap(nil, m.moved) {
			return
		}
		e = s.Load()
	}
	if e != m.moved {
		place(m, n, e.hash, e.key, e, nil)
	}
}

// Get returns the value for key, or nil/false when absent or deleted.
func (m *Map[V]) Get(key string) (*V, bool) {
	return load(lookup(m, hashx.HashString(key), key))
}

// GetBytes is Get for a byte-slice key, without converting it to a string.
func (m *Map[V]) GetBytes(key []byte) (*V, bool) {
	return load(lookup(m, hashx.Hash(key), key))
}

func load[V any](e *entry[V]) (*V, bool) {
	if e == nil {
		return nil, false
	}
	v := e.val.Load()
	return v, v != nil
}

// Put stores v under key, inserting or overwriting (also reviving a deleted
// entry). v must not be nil.
func (m *Map[V]) Put(key string, v *V) { put(m, hashx.HashString(key), key, v) }

// PutBytes is Put for a byte-slice key; it copies the key only when the key
// is new to the map.
func (m *Map[V]) PutBytes(key []byte, v *V) { put(m, hashx.Hash(key), key, v) }

func put[V any, K keyT](m *Map[V], h uint64, key K, v *V) {
	if v == nil {
		panic("lfmap: nil value")
	}
	m.help()
	e, inserted := place(m, m.head.Load(), h, key, nil, v)
	if inserted || e.val.Swap(v) == nil {
		m.live.Add(1)
	}
}

// Delete deletes key, reporting whether a live entry was removed.
func (m *Map[V]) Delete(key string) bool {
	e := lookup(m, hashx.HashString(key), key)
	if e != nil && e.val.Swap(nil) != nil {
		m.live.Add(-1)
		return true
	}
	return false
}

// CompareAndDelete deletes key only while it still maps to old — the
// invalidation primitive: a client that discovered a stale pointer removes
// it without clobbering a fresher pointer another client just installed.
func (m *Map[V]) CompareAndDelete(key string, old *V) bool {
	return m.compareAndDelete(lookup(m, hashx.HashString(key), key), old)
}

// CompareAndDeleteBytes is CompareAndDelete for a byte-slice key.
func (m *Map[V]) CompareAndDeleteBytes(key []byte, old *V) bool {
	return m.compareAndDelete(lookup(m, hashx.Hash(key), key), old)
}

func (m *Map[V]) compareAndDelete(e *entry[V], old *V) bool {
	if e != nil && e.val.CompareAndSwap(old, nil) {
		m.live.Add(-1)
		return true
	}
	return false
}

// Len reports the number of live (non-deleted) entries. It is exact when
// the map is quiescent and approximate under concurrency.
func (m *Map[V]) Len() int { return int(m.live.Load()) }

// Range calls fn for each live entry until fn returns false. It visits each
// entry at most once, across every table a migration spans, and every entry
// live throughout the call exactly once. Entries inserted, deleted or
// revived concurrently may or may not be observed.
func (m *Map[V]) Range(fn func(key string, v *V) bool) {
	first := m.head.Load()
	for t := first; t != nil; t = t.next.Load() {
		for i := range t.slots {
			e := t.slots[i].Load()
			if e == nil || e == m.moved {
				continue
			}
			v := e.val.Load()
			if v == nil || m.inEarlier(first, t, e) {
				continue
			}
			if !fn(e.key, v) {
				return
			}
		}
	}
}

// inEarlier reports whether e, found in t, also sits in a table Range
// visited before t. Entries only move forward, so the earliest table holding
// e is where Range yields it.
func (m *Map[V]) inEarlier(first, t *table[V], e *entry[V]) bool {
	for u := first; u != t; u = u.next.Load() {
		if f, _ := find(m, u, e.hash, e.key); f == e {
			return true
		}
	}
	return false
}
