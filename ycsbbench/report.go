package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env describes the machine a result was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostEnv() env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantileUs is a histogram's q-quantile in microseconds, or 0 when the
// histogram is empty (the report prints its sample count next to it).
func quantileUs(h *hist, q float64) float64 {
	if h.n == 0 {
		return 0
	}
	return h.quantile(q) / 1e3
}

// counts derives the per-layer counts of a phase and of the stores after
// close.
func counts(ph *phaseResult, st *storeState, lfmapEntries int) map[string]metric {
	b, a := ph.before, ph.after
	gets := float64(a.client.Gets - b.client.Gets)
	updates := float64(a.client.Updates - b.client.Updates)
	ops := gets + updates
	srv := func(f func(s *snapshot) int64) float64 { return float64(f(&a) - f(&b)) }
	m := map[string]metric{
		"client.onesided_hit_ratio":   {ratio(float64(a.client.RDMAReadHits-b.client.RDMAReadHits), gets), "ratio"},
		"client.stale_fallback_ratio": {ratio(float64(a.client.RDMAReadStale-b.client.RDMAReadStale), gets), "ratio"},
		"client.pointer_miss_ratio":   {ratio(float64(a.client.PointerMisses-b.client.PointerMisses), gets), "ratio"},
		"client.routing_retries":      {float64(a.client.RoutingRetries - b.client.RoutingRetries), "count"},
		"lfmap.entries":               {float64(lfmapEntries), "count"},
		"rdma.client_ops_per_op":      {ratio(srv(func(s *snapshot) int64 { return s.clientOps }), ops), "1/op"},
		"rdma.client_bytes_per_op":    {ratio(srv(func(s *snapshot) int64 { return s.clientByte }), ops), "B/op"},
		"rdma.server_ops_per_op":      {ratio(srv(func(s *snapshot) int64 { return s.serverOps }), ops), "1/op"},
		"rdma.server_bytes_per_op":    {ratio(srv(func(s *snapshot) int64 { return s.serverByte }), ops), "B/op"},
		"shard.message_gets_per_get":  {ratio(float64(a.server.Gets-b.server.Gets), gets), "ratio"},
		"shard.readplane_hit_ratio": {ratio(float64(a.server.ReadPlaneHits-b.server.ReadPlaneHits),
			float64(a.server.ReadPlaneHits-b.server.ReadPlaneHits+a.server.ReadPlaneFallbacks-b.server.ReadPlaneFallbacks)), "ratio"},
		"shard.readplane_torn":             {float64(a.server.ReadPlaneTorn - b.server.ReadPlaneTorn), "count"},
		"kv.reclaims_per_update":           {ratio(float64(a.server.Reclaims-b.server.Reclaims), updates), "ratio"},
		"kv.pending_reclaims":              {float64(st.pending), "count"},
		"kv.arena_bytes_per_live_byte":     {ratio(float64(st.arenaLive), float64(st.liveBytes)), "ratio"},
		"hashtable.overflow_per_main":      {ratio(float64(st.overflow), float64(st.mainBuckets)), "ratio"},
		"replication.records_per_mutation": {ratio(float64(a.server.Replications-b.server.Replications), updates), "ratio"},
		"replication.rollbacks":            {srv(func(s *snapshot) int64 { return s.rollbacks }), "count"},
		"replication.secondary_lag":        {float64(a.server.Replications - a.secApplied), "count"},
		"lease.renewals_per_op":            {ratio(float64(a.server.LeaseRenewals-b.server.LeaseRenewals), ops), "ratio"},
		"lease.rejects_per_op":             {ratio(float64(a.server.LeaseRejects-b.server.LeaseRejects), ops), "ratio"},
		"go.gc_cycles":                     {float64(a.numGC - b.numGC), "count"},
		"go.alloc_bytes_per_op":            {ratio(float64(a.alloc-b.alloc), ops), "B/op"},
	}
	return m
}

// pathLayers lists, per access path, the replayed layer calls one call on
// that path makes, with how many times it makes each. The residual of a path
// is its median client time minus their sum: scheduling, hand-off, spinning
// and whatever the replay does not cover. The stale path counts one RDMA
// Read, which a pointer whose lease has run out skips.
func pathLayers(w workload) map[int][]layerUse {
	// A message GET after the pointer-cache lookup: route, encode, request
	// and response through the mailbox rings, decode, and the shard's lookup.
	msgGet := []layerUse{
		{"consistent.lookup_ns", 1}, {"message.request_codec_ns", 1}, {"message.mailbox_ns", 2},
		{"message.response_codec_ns", 1}, {"kv.get_ns", 1},
	}
	lookup := layerUse{"lfmap.get_ns", 1}
	read := layerUse{"rdma.read_ns", 1}
	put := []layerUse{
		{"consistent.lookup_ns", 1}, {"message.request_codec_ns", 1},
		{"message.mailbox_ns", 2}, {"message.response_codec_ns", 1}, {"kv.put_ns", 1},
	}
	if w.opts.Replicas > 0 {
		// Relaxed acks: the shard waits for the log write, not the apply.
		put = append(put, layerUse{"replication.replicate_ns", float64(w.opts.Replicas)})
	}
	b := float64(max(w.batch, 1))
	multi := []layerUse{
		{"consistent.lookup_ns", b}, {"message.request_codec_ns", b},
		{"message.mailbox_ns", 2 * b}, {"message.response_codec_ns", b}, {"kv.probeget_ns", b},
	}
	return map[int][]layerUse{
		pathHit:     {lookup, read},
		pathStale:   append([]layerUse{lookup, read}, msgGet...),
		pathMessage: append([]layerUse{lookup}, msgGet...),
		pathPut:     put,
		pathMulti:   multi,
	}
}

type layerUse struct {
	metric string
	times  float64
}

// breakdown is one access path's client time split into layer self times
// and a residual, all in microseconds.
type breakdown struct {
	Path       string      `json:"path"`
	Calls      uint64      `json:"calls"`
	ClientUs   float64     `json:"client_us"`
	Layers     []layerTime `json:"layers"`
	ResidualUs float64     `json:"residual_us"`
}

type layerTime struct {
	Metric string  `json:"metric"`
	Us     float64 `json:"us"`
}

func breakdowns(w workload, traced *phaseResult, layerNs map[string]float64) []breakdown {
	var out []breakdown
	uses := pathLayers(w)
	for p := 0; p < numPaths; p++ {
		h := &traced.paths[p]
		if h.n == 0 {
			continue
		}
		bd := breakdown{Path: pathNames[p], Calls: h.n, ClientUs: quantileUs(h, 0.5)}
		bd.ResidualUs = bd.ClientUs
		for _, u := range uses[p] {
			us := layerNs[u.metric] * u.times / 1e3
			bd.Layers = append(bd.Layers, layerTime{u.metric, us})
			bd.ResidualUs -= us
		}
		out = append(out, bd)
	}
	return out
}

// finite replaces a NaN or infinity by 0 so the result stays valid JSON.
func finite(m map[string]metric) {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
}

// printMetrics writes one aligned "name value unit" line per metric.
func printMetrics(out io.Writer, title string, m map[string]metric, notes map[string]string) {
	fmt.Fprintf(out, "%s\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %-6s %s\n", k, m[k].Value, m[k].Unit, notes[k])
	}
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
