package main

import (
	"errors"
	"testing"
)

// newTestOracle returns an oracle over 8 keys whose client 0 updates keys
// 5, 5, 3 and client 1 updates key 5, in that cyclic order, after the load.
func newTestOracle() *oracle {
	o := newOracle(8, [numClients][]int64{{5, 5, 3}, {5}})
	o.loaded()
	return o
}

func value(key int64, writer int, seq uint64) []byte {
	return encodeValue(make([]byte, valueLen), key, writer, seq)
}

func TestValueRoundTrip(t *testing.T) {
	k, w, s, ok := decodeValue(value(123456, 1, 987654321))
	if !ok || k != 123456 || w != 1 || s != 987654321 {
		t.Fatalf("decode = %d %d %d %v", k, w, s, ok)
	}
}

func TestOracleAcceptsLoadedValue(t *testing.T) {
	o := newTestOracle()
	if err := o.check(5, value(5, loaderID, 1), o.snapshot(5)); err != nil {
		t.Fatal(err)
	}
}

func TestOracleCatchesCorruptedValue(t *testing.T) {
	o := newTestOracle()
	for _, i := range []int{0, 9, 20, crcOff} {
		v := value(5, loaderID, 1)
		v[i] ^= 0x40
		if err := o.check(5, v, o.snapshot(5)); !errors.Is(err, errTorn) {
			t.Errorf("byte %d flipped: err = %v, want errTorn", i, err)
		}
	}
	if err := o.check(5, value(5, loaderID, 1)[:valueLen-1], o.snapshot(5)); !errors.Is(err, errTorn) {
		t.Errorf("short value: err = %v, want errTorn", err)
	}
}

func TestOracleCatchesWrongKeyAndUnknownValues(t *testing.T) {
	o := newTestOracle()
	if err := o.check(4, value(5, loaderID, 1), o.snapshot(4)); !errors.Is(err, errWrongKey) {
		t.Errorf("value of key 5 read as key 4: err = %v", err)
	}
	// Client 0 has issued nothing yet.
	if err := o.check(5, value(5, 0, 1), o.snapshot(5)); !errors.Is(err, errUnknown) {
		t.Errorf("never issued: err = %v", err)
	}
	tk := o.begin(0, 5)
	o.ack(0, tk)
	// Client 0's first update went to key 5, not key 3.
	if err := o.check(3, value(3, 0, 1), o.snapshot(3)); !errors.Is(err, errUnknown) {
		t.Errorf("seq 1 claims key 3: err = %v", err)
	}
	if err := o.check(5, value(5, loaderID, 2), o.snapshot(5)); !errors.Is(err, errUnknown) {
		t.Errorf("loader seq 2: err = %v", err)
	}
	if err := o.check(5, value(5, 7, 1), o.snapshot(5)); !errors.Is(err, errUnknown) {
		t.Errorf("writer 7: err = %v", err)
	}
}

func TestOracleCatchesStaleValue(t *testing.T) {
	o := newTestOracle()
	t1 := o.begin(0, 5)
	o.ack(0, t1)
	// The load's value was superseded by client 0's acknowledged write.
	if err := o.check(5, value(5, loaderID, 1), o.snapshot(5)); !errors.Is(err, errStale) {
		t.Errorf("loaded value after an acknowledged update: err = %v", err)
	}
	t2 := o.begin(0, 5)
	o.ack(0, t2)
	// A writer's own earlier write is superseded by its later one.
	if err := o.check(5, value(5, 0, t1.seq), o.snapshot(5)); !errors.Is(err, errStale) {
		t.Errorf("own older write: err = %v", err)
	}
	if err := o.check(5, value(5, 0, t2.seq), o.snapshot(5)); err != nil {
		t.Errorf("latest write: %v", err)
	}
	// Client 1's write starts after client 0's second write was acknowledged,
	// so once it is acknowledged that write is superseded too.
	t3 := o.begin(1, 5)
	o.ack(1, t3)
	if err := o.check(5, value(5, 0, t2.seq), o.snapshot(5)); !errors.Is(err, errStale) {
		t.Errorf("other writer's older write: err = %v", err)
	}
	if err := o.checkFinal(5, value(5, 1, t3.seq)); err != nil {
		t.Errorf("final value: %v", err)
	}
}

func TestOracleAllowsConcurrentWrites(t *testing.T) {
	o := newTestOracle()
	// Both writes are in flight together: the store may apply either last.
	t0 := o.begin(0, 5)
	t1 := o.begin(1, 5)
	o.ack(1, t1)
	o.ack(0, t0)
	for _, v := range [][]byte{value(5, 0, t0.seq), value(5, 1, t1.seq)} {
		if err := o.checkFinal(5, v); err != nil {
			t.Errorf("concurrent write judged stale: %v", err)
		}
	}
	// A read that began before either acknowledgement may see the load.
	var snap [numWriters]uint64
	if err := o.check(5, value(5, loaderID, 1), snap); err != nil {
		t.Errorf("read older than both writes: %v", err)
	}
}
