package lfmap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hydradb/internal/hashx"
)

func TestBasicOps(t *testing.T) {
	m := New[int]()
	if _, ok := m.Get("a"); ok {
		t.Fatal("get on empty map")
	}
	v := 42
	m.Put("a", &v)
	got, ok := m.Get("a")
	if !ok || *got != 42 {
		t.Fatalf("get: %v %v", got, ok)
	}
	v2 := 43
	m.Put("a", &v2)
	got, _ = m.Get("a")
	if *got != 43 {
		t.Fatal("overwrite failed")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if !m.Delete("a") {
		t.Fatal("delete failed")
	}
	if m.Delete("a") {
		t.Fatal("double delete succeeded")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("get after delete")
	}
	if m.Len() != 0 {
		t.Fatalf("len after delete = %d", m.Len())
	}
}

func TestReviveTombstone(t *testing.T) {
	m := New[string]()
	s1 := "one"
	m.Put("k", &s1)
	m.Delete("k")
	s2 := "two"
	m.Put("k", &s2)
	got, ok := m.Get("k")
	if !ok || *got != "two" {
		t.Fatalf("revive failed: %v %v", got, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestCompareAndDelete(t *testing.T) {
	m := New[int]()
	v1, v2 := 1, 2
	m.Put("k", &v1)
	if m.CompareAndDelete("k", &v2) {
		t.Fatal("CAD with wrong old succeeded")
	}
	if !m.CompareAndDelete("k", &v1) {
		t.Fatal("CAD with correct old failed")
	}
	if _, ok := m.Get("k"); ok {
		t.Fatal("entry survived CAD")
	}
	if m.CompareAndDelete("absent", &v1) {
		t.Fatal("CAD on absent key succeeded")
	}
}

// TestByteKeys: the byte-key methods address the same entries as the string
// ones, and a lookup, an overwrite and an invalidation of a known key
// allocate nothing.
func TestByteKeys(t *testing.T) {
	m := New[int]()
	v1, v2 := 1, 2
	key := []byte("user000000000042")
	m.PutBytes(key, &v1)
	if got, ok := m.Get(string(key)); !ok || got != &v1 {
		t.Fatalf("string Get after PutBytes: %v %v", got, ok)
	}
	m.Put(string(key), &v2)
	if got, ok := m.GetBytes(key); !ok || got != &v2 {
		t.Fatalf("GetBytes after Put: %v %v", got, ok)
	}
	if m.CompareAndDeleteBytes(key, &v1) || !m.CompareAndDeleteBytes(key, &v2) {
		t.Fatal("CompareAndDeleteBytes ignored its old value")
	}
	if _, ok := m.GetBytes(key); ok || m.Len() != 0 {
		t.Fatalf("entry survived CompareAndDeleteBytes (len %d)", m.Len())
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.PutBytes(key, &v1)
		if _, ok := m.GetBytes(key); !ok {
			t.Fatal("GetBytes missed")
		}
		m.CompareAndDeleteBytes(key, &v1)
	})
	if allocs != 0 {
		t.Fatalf("byte-key ops on a known key allocate %.1f/op, want 0", allocs)
	}
}

// TestRange: Range visits each live entry once, skips deleted ones, and
// stops early when fn returns false.
func TestRange(t *testing.T) {
	m := New[int]()
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
		m.Put(fmt.Sprintf("k%02d", i), &vals[i])
	}
	for i := 0; i < 10; i++ {
		m.Delete(fmt.Sprintf("k%02d", i))
	}
	seen := 0
	m.Range(func(k string, v *int) bool {
		seen++
		if *v < 10 {
			t.Fatalf("deleted entry %s visible", k)
		}
		return true
	})
	if seen != 10 {
		t.Fatalf("range saw %d live entries, want 10", seen)
	}
	n := 0
	m.Range(func(string, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestProbeCollisions: keys whose hashes share their low 12 bits start at
// the same slot in every table up to 4096 slots, so each forms one long
// probe run; lookups must still tell them apart across the doublings.
func TestProbeCollisions(t *testing.T) {
	m := New[int]()
	var keys []string
	for i := 0; len(keys) < 100; i++ {
		k := fmt.Sprintf("key%06d", i)
		if hashx.HashString(k)&0xfff == 0x123 {
			keys = append(keys, k)
		}
	}
	vals := make([]int, len(keys))
	for i, k := range keys {
		vals[i] = i
		m.Put(k, &vals[i])
	}
	for i, k := range keys {
		got, ok := m.Get(k)
		if !ok || *got != i {
			t.Fatalf("%s: %v %v", k, got, ok)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("len = %d, want %d", m.Len(), len(keys))
	}
}

// TestConcurrentMixed hammers the map from many goroutines. Run with -race
// this validates the lock-free paths.
func TestConcurrentMixed(t *testing.T) {
	m := New[int64]()
	const (
		workers = 8
		keys    = 32
		iters   = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("key%02d", (w*31+i)%keys)
				switch i % 4 {
				case 0, 1:
					v := int64(w*iters + i)
					m.Put(k, &v)
				case 2:
					if v, ok := m.Get(k); ok && v == nil {
						t.Error("live entry with nil value")
						return
					}
				default:
					m.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	// Post-run: all remaining values must be valid pointers.
	m.Range(func(k string, v *int64) bool {
		if v == nil {
			t.Errorf("nil value for %s", k)
		}
		return true
	})
	if m.Len() < 0 || m.Len() > keys {
		t.Fatalf("implausible len %d", m.Len())
	}
}

func TestConcurrentInsertDistinctKeys(t *testing.T) {
	// All inserts must survive racing each other through several doublings.
	m := New[int]()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := w*perWorker + i
				m.Put(fmt.Sprintf("w%d-k%d", w, i), &v)
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != workers*perWorker {
		t.Fatalf("lost inserts: len=%d want %d", m.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			got, ok := m.Get(fmt.Sprintf("w%d-k%d", w, i))
			if !ok || *got != w*perWorker+i {
				t.Fatalf("w%d-k%d missing or wrong", w, i)
			}
		}
	}
}

// TestConcurrentGrowth runs four writers inserting overlapping keys through
// eight doublings of the table while readers check that every key whose Put
// had returned before the read began is found, and a churner deletes and
// revives its own keys. At quiescence Len counts the live keys and Range
// yields each exactly once.
func TestConcurrentGrowth(t *testing.T) {
	const (
		writers = 4
		readers = 2
		nKeys   = minSlots << 6 // with the churn keys: minSlots << 8 slots
		nChurn  = 64
	)
	m := New[int]()
	keys := make([]string, nKeys)
	vals := make([]int, nKeys)
	done := make([]atomic.Bool, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
		vals[i] = i
	}
	churnKeys := make([]string, nChurn)
	churnVals := make([]int, nChurn)
	for i := range churnKeys {
		churnKeys[i] = fmt.Sprintf("churn%011d", i)
		churnVals[i] = -i
		m.Put(churnKeys[i], &churnVals[i])
	}

	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			// Each writer walks every key from its own offset, so every key
			// is inserted by one writer and overwritten by the others.
			for j := 0; j < nKeys; j++ {
				k := (j + w*nKeys/writers) % nKeys
				m.Put(keys[k], &vals[k])
				done[k].Store(true)
			}
		}(w)
	}
	stop := make(chan struct{})
	var others sync.WaitGroup
	for r := 0; r < readers; r++ {
		others.Add(1)
		go func(r int) {
			defer others.Done()
			for i := r; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				k := i % nKeys
				wasDone := done[k].Load()
				v, ok := m.Get(keys[k])
				if wasDone && (!ok || *v != k) {
					t.Errorf("key %d: Put returned before the read, Get = %v %v", k, v, ok)
					return
				}
			}
		}(r)
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % nChurn
			m.Put(churnKeys[k], &churnVals[k])
			if !m.CompareAndDelete(churnKeys[k], &churnVals[k]) {
				t.Errorf("churn key %d: CompareAndDelete of its own value failed", k)
				return
			}
			m.Put(churnKeys[k], &churnVals[k]) // revive
		}
	}()
	writing.Wait()
	close(stop)
	others.Wait()

	if m.Len() != nKeys+nChurn {
		t.Fatalf("Len = %d, want %d", m.Len(), nKeys+nChurn)
	}
	seen := make(map[string]int, nKeys+nChurn)
	m.Range(func(k string, _ *int) bool { seen[k]++; return true })
	for _, k := range append(append([]string(nil), keys...), churnKeys...) {
		if seen[k] != 1 {
			t.Fatalf("Range yielded %s %d times", k, seen[k])
		}
	}
	if len(seen) != nKeys+nChurn {
		t.Fatalf("Range yielded %d keys, want %d", len(seen), nKeys+nChurn)
	}
	if n := len(m.head.Load().slots); n < minSlots<<6 {
		t.Fatalf("table has %d slots after %d inserts: fewer than six doublings", n, nKeys)
	}
}

// TestInsertRacesMigration replays the one interleaving migration must get
// right: an inserter passes the capacity check and is about to CAS an empty
// slot when another insert starts the migration, which passes that slot and
// retires the table. The migrator's nil→moved CAS makes the inserter's CAS
// fail, so the insert continues in the successor. The seeded bug — a
// migrator that skips empty slots without closing them — lets the CAS land
// in the retired table, losing the insert; the test must catch it.
func TestInsertRacesMigration(t *testing.T) {
	healthy := func(m *Map[int], old *table[int]) {
		for m.head.Load() == old {
			m.help()
		}
	}
	skipsEmpty := func(m *Map[int], old *table[int]) {
		n := old.next.Load()
		for i := range old.slots {
			if e := old.slots[i].Load(); e != nil && e != m.moved {
				place(m, n, e.hash, e.key, e, nil)
			}
		}
		m.head.CompareAndSwap(old, n)
	}
	for _, tc := range []struct {
		name     string
		migrate  func(m *Map[int], old *table[int])
		wantLost bool
	}{
		{"closes-empty-slots", healthy, false},
		{"seeded-bug-skips-empty-slots", skipsEmpty, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New[int]()
			vals := make([]int, minSlots/2+1)
			for i := 0; i < minSlots/2-1; i++ {
				vals[i] = i
				m.Put(fmt.Sprintf("fill%02d", i), &vals[i])
			}
			old := m.head.Load()
			raceHook = func() {
				raceHook = nil
				// The racer holds the last reservation below half load, so
				// this insert installs the successor; then migrate.
				m.Put("trigger", &vals[minSlots/2])
				if old.next.Load() == nil {
					t.Fatal("trigger insert did not start a migration")
				}
				tc.migrate(m, old)
			}
			defer func() { raceHook = nil }()
			racer := 7
			m.Put("racer", &racer)
			if m.head.Load() == old {
				t.Fatal("old table not retired")
			}
			_, found := m.Get("racer")
			if lost := !found; lost != tc.wantLost {
				t.Fatalf("racer lost = %v, want %v", lost, tc.wantLost)
			}
			if tc.wantLost {
				return
			}
			if m.Len() != minSlots/2+1 {
				t.Fatalf("Len = %d, want %d", m.Len(), minSlots/2+1)
			}
			n := 0
			m.Range(func(string, *int) bool { n++; return true })
			if n != minSlots/2+1 {
				t.Fatalf("Range yielded %d entries, want %d", n, minSlots/2+1)
			}
		})
	}
}

var sinkOK bool

// BenchmarkGetHit times a hit at 1k, 100k and 500k entries: the last is
// ycsb-c-uniform-500k's population, where the benchmark's lfmap.get_ns layer
// metric is measured.
func BenchmarkGetHit(b *testing.B) {
	for _, n := range []int{1_000, 100_000, 500_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			m := New[int]()
			vals := make([]int, n)
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("user%012d", i) // 16 B, the workloads' key size
				vals[i] = i
				m.Put(keys[i], &vals[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sinkOK = m.Get(keys[i%n])
			}
		})
	}
}

func BenchmarkPutOverwrite(b *testing.B) {
	m := New[int]()
	v := 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put("hot", &v)
	}
}
