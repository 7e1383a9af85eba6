// Command ycsbbench is HydraDB's benchmark: a single-process, closed-loop
// YCSB driver over the public hydradb API. Two client goroutines, each with
// its own hydradb.Client, split one pre-generated request stream and issue
// their next call as soon as the previous one returns. Every value read is
// checked by an oracle. See README.md for the workloads and metrics.
//
//	ycsbbench --workload ycsb-b-zipf --seed 1 --seconds 15 --trace 0
//	ycsbbench spread run1.out run2.out ...
//
// With --trace 0 the last line of output is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run. Full reports and span files go to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hydradb/internal/client"
	"hydradb/internal/consistent"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spread(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ycsbbench spread:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generation seed")
	flag.IntVar(&seconds, "seconds", 15, "total length of the timed phases")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the full report and spans (empty: none)")
	flag.Parse()
	if cfg.workload == "" || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.warmup = 500 * time.Millisecond
	cfg.log = os.Stdout

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // total timed time of an untraced run
	trace    bool
	warmup   time.Duration
	// records and streamLen, when non-zero, shrink the workload and its
	// stores (tests).
	records   int64
	streamLen int
	outDir    string
	log       io.Writer
}

// setups is the number of deployments an untraced run starts, loads and
// measures in turn; setup_s and heap_mb are medians over them. On a 2-core
// host a deployment's throughput settles into one of several scheduling
// patterns that differ by a third or more and last as long as it does, so a
// run samples many short-lived deployments rather than one long one.
const setups = 6

// windowFor splits a phase of length d into equal windows of at most
// 500 ms, for the window rates in the report.
func windowFor(d time.Duration) time.Duration {
	const most = 500 * time.Millisecond
	return d / max((d+most-1)/most, 1)
}

// report is everything a run measured, written to the --out directory.
type report struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Traced        bool               `json:"traced"`
	Env           env                `json:"env"`
	SetupS        []float64          `json:"setup_s_each"`
	HeapMB        []float64          `json:"heap_mb_each"`
	WindowOpsPerS []float64          `json:"window_ops_per_s"`
	Calls         map[string]uint64  `json:"calls"`
	Percentiles   map[string]float64 `json:"percentiles_us"`
	Metrics       map[string]metric  `json:"metrics"`
	Counts        map[string]metric  `json:"counts"`
	Paths         []breakdown        `json:"paths,omitempty"`
	SelfNs        map[string]int64   `json:"span_self_ns,omitempty"`
	Spans         map[string]int     `json:"span_count,omitempty"`
	Dropped       int64              `json:"spans_dropped,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	Result        *result            `json:"result"`
}

// runner carries one run's inputs and accumulates its outcome.
type runner struct {
	cfg      config
	w        workload
	s        *stream
	rep      *report
	res      *result
	failures []error
	tr       *tracer
}

func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.records > 0 {
		w.records = cfg.records
		w.opts.MaxItemsPerShard = 1 << 17
		w.opts.ArenaBytesPerShard = 16 << 20
	}
	n := cfg.streamLen
	if n == 0 {
		n = streamLen
	}
	rn := &runner{cfg: cfg, w: w, tr: &tracer{}, res: &result{},
		rep: &report{Workload: w.name, Seed: cfg.seed, Traced: cfg.trace, Env: hostEnv(),
			Calls: map[string]uint64{}, Percentiles: map[string]float64{}}}
	e := rn.rep.Env
	fmt.Fprintf(cfg.log, "workload %s seed %d records %d nproc %d GOMAXPROCS %d %s cpu %q\n",
		w.name, cfg.seed, w.records, e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel)
	if rn.s, err = generate(w, cfg.seed, n); err != nil {
		return nil, err
	}
	if cfg.trace {
		err = rn.traced()
	} else {
		err = rn.untraced()
	}
	if err != nil {
		return nil, err
	}
	rn.res.Correct = rn.res.Failed == 0
	for _, f := range rn.failures {
		fmt.Fprintln(cfg.log, "FAIL:", f)
		rn.rep.Failures = append(rn.rep.Failures, f.Error())
	}
	fmt.Fprintf(cfg.log, "fail_ratio %.6f (%d of %d)\n",
		ratio(float64(rn.res.Failed), float64(rn.res.Attempted)), rn.res.Failed, rn.res.Attempted)
	rn.rep.Result = rn.res
	if cfg.outDir != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
		if err := writeJSON(filepath.Join(cfg.outDir, name), rn.rep); err != nil {
			return nil, err
		}
	}
	return rn.res, nil
}

// phaseSpec is one closed-loop phase of a trial.
type phaseSpec struct {
	warmup, dur time.Duration
	traced      bool
}

// trial is one deployment: started, loaded, measured, closed and inspected.
type trial struct {
	setupS float64
	heapMB float64
	phases []*phaseResult
	store  *storeState
	cache  client.PtrCache // client 0's pointer cache, kept past close
	ring   *consistent.Ring
}

func (rn *runner) trial(specs ...phaseSpec) (*trial, error) {
	// Collect the previous deployment first, so setup_s does not pay for it.
	runtime.GC()
	d, took, err := setup(rn.w, rn.s)
	if err != nil {
		return nil, err
	}
	t := &trial{setupS: took.Seconds()}
	o := newOracle(rn.w.records, rn.s.updKeys)
	o.loaded()
	runtime.GC()
	pos := [numClients]int{}
	for c := range pos {
		pos[c] = c
	}
	for _, sp := range specs {
		ph := &phase{w: rn.w, s: rn.s, o: o, d: d, warmup: sp.warmup, dur: sp.dur, window: windowFor(sp.dur),
			traced: sp.traced, spanCap: 1 << 16, pos: &pos, tracer: rn.tr}
		pr := ph.run()
		rn.res.Attempted += pr.attempted
		rn.res.Failed += pr.failed
		rn.failures = append(rn.failures, pr.errs...)
		t.phases = append(t.phases, pr)
	}
	// Heap in use with the deployment still up, after a forced collection.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapMB = float64(ms.HeapInuse) / 1e6
	t.cache, t.ring = d.clients[0].Cache(), d.db.Cluster().Ring()
	d.db.Close()
	if t.store, err = inspect(d, rn.w.records); err != nil {
		return nil, err
	}
	rn.checkFinal(o, t.store)
	return t, nil
}

// checkFinal requires every loaded key to hold one of its last acknowledged
// writes, and every secondary to equal its primary.
func (rn *runner) checkFinal(o *oracle, st *storeState) {
	for k := int64(0); k < rn.w.records; k++ {
		rn.res.Attempted++
		var err error
		if !st.present[k] {
			err = fmt.Errorf("final state: %w: key %d", errMissing, k)
		} else if cerr := o.checkFinal(k, st.final[k*valueLen:(k+1)*valueLen]); cerr != nil {
			err = fmt.Errorf("final state: %w", cerr)
		}
		if err != nil {
			rn.fail(err)
		}
	}
	st.final, st.present = nil, nil
	if st.unexpected > 0 {
		rn.res.Attempted++
		rn.fail(fmt.Errorf("final state: %d items that are no loaded key's, or duplicates", st.unexpected))
	}
	if st.replicaDiffs > 0 {
		rn.res.Attempted++
		rn.fail(fmt.Errorf("replicas differ from their primary on %d keys", st.replicaDiffs))
	}
}

func (rn *runner) fail(err error) {
	rn.res.Failed++
	if len(rn.failures) < 16 {
		rn.failures = append(rn.failures, err)
	}
}

// untraced measures the end-to-end metrics over setups trials, each timing
// an equal share of cfg.seconds, and pools their calls.
func (rn *runner) untraced() error {
	pool := &phaseResult{}
	for i := 0; i < setups; i++ {
		t, err := rn.trial(phaseSpec{warmup: rn.cfg.warmup, dur: rn.cfg.seconds / time.Duration(setups)})
		if err != nil {
			return err
		}
		rn.rep.SetupS = append(rn.rep.SetupS, t.setupS)
		rn.rep.HeapMB = append(rn.rep.HeapMB, t.heapMB)
		pool.pool(t.phases[0])
		// Keep only numbers: a kept trial would hold its pointer cache in
		// the next deployment's heap.
		rn.rep.Counts = counts(t.phases[0], t.store, t.cache.Len())
	}
	rn.reportCalls(pool)
	m := map[string]metric{
		"ops_per_s": {pool.opsPerSecond(), "1/s"},
		"op_p50_us": {pool.all.quantile(0.5) / 1e3, "us"},
		"op_p99_us": {pool.all.quantile(0.99) / 1e3, "us"},
		"setup_s":   {median(rn.rep.SetupS), "s"},
		"heap_mb":   {median(rn.rep.HeapMB), "MB"},
	}
	notes := map[string]string{
		"ops_per_s": fmt.Sprintf("(%d ops in %v)", pool.ops(), pool.dur),
		"op_p50_us": fmt.Sprintf("(n=%d calls)", pool.all.n),
		"op_p99_us": fmt.Sprintf("(n=%d calls)", pool.all.n),
		"setup_s":   fmt.Sprintf("(median of %d setups: %.4f)", len(rn.rep.SetupS), rn.rep.SetupS),
		"heap_mb":   fmt.Sprintf("(median of %d: %.1f)", len(rn.rep.HeapMB), rn.rep.HeapMB),
	}
	printMetrics(rn.cfg.log, "end-to-end:", m, notes)
	rn.rep.Metrics = m
	rn.res.Metrics = m
	return nil
}

// reportCalls prints and records per-kind call percentiles and the window
// rates of the measured phase.
func (rn *runner) reportCalls(p *phaseResult) {
	for k := 0; k < numKinds; k++ {
		h := &p.kinds[k]
		if h.n == 0 {
			continue
		}
		rn.rep.Calls[kindNames[k]] = h.n
		rn.rep.Percentiles[kindNames[k]+"_p50_us"] = h.quantile(0.5) / 1e3
		rn.rep.Percentiles[kindNames[k]+"_p99_us"] = h.quantile(0.99) / 1e3
		fmt.Fprintf(rn.cfg.log, "%-5s calls %9d  p50 %9.3f us  p99 %9.3f us\n",
			kindNames[k], h.n, h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
	}
	rn.rep.WindowOpsPerS = p.windowRates()
	fmt.Fprintf(rn.cfg.log, "window ops/s: %.0f\n", rn.rep.WindowOpsPerS)
}

// traced runs one trial with two timed phases as long as one untraced
// trial's: an untraced phase for the counts and the tracing-overhead
// baseline, then a traced phase whose every client call is a span
// classified by access path. The layer replay follows once the deployment
// is closed.
func (rn *runner) traced() error {
	dur := rn.cfg.seconds / time.Duration(setups)
	t, err := rn.trial(phaseSpec{warmup: rn.cfg.warmup, dur: dur}, phaseSpec{dur: dur, traced: true})
	if err != nil {
		return err
	}
	pm, pt := t.phases[0], t.phases[1]
	rn.rep.SetupS, rn.rep.HeapMB = []float64{t.setupS}, []float64{t.heapMB}
	rn.reportCalls(pm)
	runtime.GC()
	layerNs, err := replayLayers(replayInput{w: rn.w, s: rn.s, cache: t.cache, ring: t.ring, shard: t.ring.Shards()[0]}, rn.tr)
	if err != nil {
		return err
	}
	layer := counts(pm, t.store, t.cache.Len())
	for k, v := range layerNs {
		layer[k] = metric{v, "ns"}
	}
	notes := map[string]string{}
	for p := 0; p < numPaths; p++ {
		name := "client." + pathNames[p] + "_us"
		layer[name] = metric{quantileUs(&pt.paths[p], 0.5), "us"}
		notes[name] = fmt.Sprintf("(median, n=%d)", pt.paths[p].n)
	}
	rn.rep.Paths = breakdowns(rn.w, pt, layerNs)
	layer["shard.residual_get_us"] = metric{0, "us"}
	layer["shard.residual_put_us"] = metric{0, "us"}
	for _, bd := range rn.rep.Paths {
		switch bd.Path {
		case pathNames[pathMessage]:
			layer["shard.residual_get_us"] = metric{bd.ResidualUs, "us"}
		case pathNames[pathPut]:
			layer["shard.residual_put_us"] = metric{bd.ResidualUs, "us"}
		}
	}
	layer["trace.overhead_ratio"] = metric{ratio(pt.opsPerSecond(), pm.opsPerSecond()), "ratio"}
	finite(layer)
	printMetrics(rn.cfg.log, "per-layer:", layer, notes)
	for _, bd := range rn.rep.Paths {
		fmt.Fprintf(rn.cfg.log, "path %-11s n=%-8d client %8.3f us =", bd.Path, bd.Calls, bd.ClientUs)
		for _, l := range bd.Layers {
			fmt.Fprintf(rn.cfg.log, " %s %.3f +", l.Metric, l.Us)
		}
		fmt.Fprintf(rn.cfg.log, " residual %.3f\n", bd.ResidualUs)
	}

	spans := append(rn.tr.spans, pt.spans...)
	rn.rep.SelfNs, rn.rep.Spans = selfTimes(spans)
	rn.rep.Dropped = pt.dropped
	rn.rep.Metrics = layer
	rn.res.Metrics = layer
	if rn.cfg.outDir == "" {
		return nil
	}
	return writeSpans(filepath.Join(rn.cfg.outDir, fmt.Sprintf("%s-seed%d.spans.tsv", rn.w.name, rn.cfg.seed)), rn.rep.Env, spans)
}
