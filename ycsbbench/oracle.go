package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Every value the benchmark writes is self-describing, so any value a GET
// returns can be traced to the write that produced it:
//
//	[0:8)   key index
//	[8:10)  writer id (a client index, or loaderID for the initial load)
//	[10:18) the writer's sequence number for this write, from 1
//	[18:28) filler derived from the fields above
//	[28:32) CRC-32C of bytes [0:28)
const (
	valueLen = 32
	crcOff   = 28
)

// Writer ids: clients are 0..numClients-1; the load that fills the store
// before the timed phase writes every record once as loaderID, sequence 1.
const (
	numClients = 2
	loaderID   = numClients
	numWriters = numClients + 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Oracle verdicts. Each is a failed operation.
var (
	errTorn     = errors.New("torn or corrupted value")
	errWrongKey = errors.New("value belongs to another key")
	errUnknown  = errors.New("value was never written")
	errStale    = errors.New("stale value: a newer write had been acknowledged")
	errMissing  = errors.New("loaded key not found")
)

func encodeValue(dst []byte, key int64, writer int, seq uint64) []byte {
	v := dst[:valueLen]
	binary.LittleEndian.PutUint64(v[0:8], uint64(key))
	binary.LittleEndian.PutUint16(v[8:10], uint16(writer))
	binary.LittleEndian.PutUint64(v[10:18], seq)
	f := uint64(key)*0x9e3779b97f4a7c15 ^ seq<<16 ^ uint64(writer)
	for i := 18; i < crcOff; i++ {
		v[i] = byte(f >> (8 * uint(i%8)))
	}
	binary.LittleEndian.PutUint32(v[crcOff:], crc32.Checksum(v[:crcOff], castagnoli))
	return v
}

func decodeValue(v []byte) (key int64, writer int, seq uint64, ok bool) {
	if len(v) != valueLen || crc32.Checksum(v[:crcOff], castagnoli) != binary.LittleEndian.Uint32(v[crcOff:]) {
		return 0, 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(v[0:8])), int(binary.LittleEndian.Uint16(v[8:10])),
		binary.LittleEndian.Uint64(v[10:18]), true
}

// oracle judges every value read against the writes issued so far.
//
// A write (w, s) of key k is superseded once a write f of k has been
// acknowledged that started after (w, s) was acknowledged: the store applied
// f after (w, s), so any GET issued after f's acknowledgement must return f
// or something later. superseded[k][w] holds the highest s of writer w known
// to be superseded on k. A writer's own writes are sequential, so its own
// acknowledged write s supersedes its earlier ones; before starting a write
// it samples every other writer's acknowledged count, and all writes up to
// those counts are superseded once it is acknowledged. The rule never flags a
// correct read: it misses only staleness between concurrent writes.
type oracle struct {
	updKeys    [numClients][]int64 // key index of each client's s-th update, cyclic
	issued     [numWriters]atomic.Uint64
	acked      [numWriters]atomic.Uint64
	superseded []atomic.Uint64 // records × numWriters
}

func newOracle(records int64, updKeys [numClients][]int64) *oracle {
	return &oracle{
		updKeys:    updKeys,
		superseded: make([]atomic.Uint64, records*numWriters),
	}
}

// loaded records that the initial load wrote and acknowledged every key.
func (o *oracle) loaded() {
	o.issued[loaderID].Store(1)
	o.acked[loaderID].Store(1)
}

// writeTicket is what a write needs to report its acknowledgement.
type writeTicket struct {
	key   int64
	seq   uint64
	floor [numWriters]uint64
}

// begin assigns writer w's next sequence number for a write of key, and
// samples the other writers' acknowledged counts.
func (o *oracle) begin(w int, key int64) writeTicket {
	t := writeTicket{key: key, seq: o.issued[w].Add(1)}
	for i := range t.floor {
		if i != w {
			t.floor[i] = o.acked[i].Load()
		}
	}
	return t
}

// ack records that the write described by t was acknowledged.
func (o *oracle) ack(w int, t writeTicket) {
	o.acked[w].Store(t.seq)
	row := o.superseded[t.key*numWriters : (t.key+1)*numWriters]
	for i := range row {
		mark := t.floor[i]
		if i == w {
			mark = t.seq - 1
		}
		raise(&row[i], mark)
	}
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// snapshot captures what key's readers may no longer observe; take it before
// issuing the read.
func (o *oracle) snapshot(key int64) (s [numWriters]uint64) {
	row := o.superseded[key*numWriters : (key+1)*numWriters]
	for i := range s {
		s[i] = row[i].Load()
	}
	return s
}

// check judges a value read for key by a read that started after snap.
func (o *oracle) check(key int64, val []byte, snap [numWriters]uint64) error {
	k, w, s, ok := decodeValue(val)
	switch {
	case !ok:
		return errTorn
	case k != key:
		return fmt.Errorf("%w: read %d, value of %d", errWrongKey, key, k)
	case !o.known(key, w, s):
		return fmt.Errorf("%w: key %d writer %d seq %d", errUnknown, key, w, s)
	case s <= snap[w]:
		return fmt.Errorf("%w: key %d writer %d seq %d, superseded through %d", errStale, key, w, s, snap[w])
	}
	return nil
}

// known reports whether writer w has issued a write with sequence s to key.
func (o *oracle) known(key int64, w int, s uint64) bool {
	if w == loaderID {
		return s == 1 && o.issued[loaderID].Load() >= 1
	}
	if w < 0 || w >= numClients || s == 0 || s > o.issued[w].Load() {
		return false
	}
	upd := o.updKeys[w]
	return len(upd) > 0 && upd[(s-1)%uint64(len(upd))] == key
}

// checkFinal judges the value a key holds once every write has returned: it
// must be one of the key's last acknowledged writes.
func (o *oracle) checkFinal(key int64, val []byte) error {
	return o.check(key, val, o.snapshot(key))
}
