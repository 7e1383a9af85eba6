package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// span is one timed interval of the traced run: a client call, a replayed
// batch of layer calls, or the root that groups them. Times are Unix ns.
type span struct {
	id, parent uint64
	req        uint64 // request id: client<<40 | call number; 0 for replay spans
	name       string
	start, end int64
}

// tracer hands out span ids and holds the spans recorded by the
// benchmark's main goroutine; client goroutines keep their own buffers,
// which are merged in after each phase.
type tracer struct {
	next  atomic.Uint64
	spans []span
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) { t.spans = append(t.spans, s) }

// selfTimes returns, per span name, the summed self time (duration minus
// the part of it covered by child spans) and the number of spans.
func selfTimes(spans []span) (map[string]int64, map[string]int) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]int64)
	count := make(map[string]int)
	for _, s := range spans {
		self[s.name] += s.end - s.start - covered(s, children[s.id])
		count[s.name]++
	}
	return self, count
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	cur := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes one tab-separated line per span, after a comment line
// naming the host.
func writeSpans(path string, e env, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# nproc=%d gomaxprocs=%d go=%s cpu=%q\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_unix_ns\tend_unix_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
