package main

import (
	"fmt"

	"hydradb"
	"hydradb/internal/ycsb"
)

// workload is one named traffic mix and the deployment it runs on.
type workload struct {
	name    string
	records int64
	readPct int
	dist    ycsb.Distribution
	// batch > 0 issues every call as a MultiGet of that many keys.
	batch int
	opts  hydradb.Options
}

// streamLen is the length of the pre-generated request stream. Clients
// cycle through their half of it, about once a second at 1M operations per
// second; repeating the stream keeps its memory small, and its keys still
// follow the workload's distribution.
const streamLen = 1 << 20

// workloads lists the benchmark's traffic mixes. README.md records why each
// exists and which layers it loads.
func workloads() []workload {
	oneServer := func() hydradb.Options {
		o := hydradb.DefaultOptions()
		o.ShardsPerMachine = 2
		return o
	}
	replicated := hydradb.DefaultOptions()
	replicated.ServerMachines = 2
	replicated.ShardsPerMachine = 1
	replicated.Replicas = 1

	readPlane := hydradb.DefaultOptions()
	readPlane.ShardsPerMachine = 1
	readPlane.ReaderThreads = 1
	readPlane.DisableRDMARead = true
	readPlane.PipelineWindow = 16

	return []workload{
		{name: "ycsb-b-zipf", records: 100_000, readPct: 95, dist: ycsb.Zipfian, opts: oneServer()},
		{name: "ycsb-c-uniform-500k", records: 500_000, readPct: 100, dist: ycsb.Uniform, opts: oneServer()},
		{name: "ycsb-a-replicated", records: 100_000, readPct: 50, dist: ycsb.Zipfian, opts: replicated},
		{name: "ycsb-c-batched-readplane", records: 100_000, readPct: 100, dist: ycsb.Uniform, batch: 16, opts: readPlane},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stream is the pre-generated request stream of one run plus what the
// oracle derives from it.
type stream struct {
	gen     *ycsb.Workload
	updKeys [numClients][]int64
}

// generate builds the request stream of w from seed. Client c takes
// requests c, c+numClients, c+2·numClients, … and wraps around.
func generate(w workload, seed int64, n int) (*stream, error) {
	gen, err := ycsb.Generate(ycsb.StandardSpec(w.records, n, w.readPct, w.dist, seed))
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	s := &stream{gen: gen}
	for i, r := range gen.Requests {
		if r.Op == ycsb.OpUpdate {
			c := i % numClients
			s.updKeys[c] = append(s.updKeys[c], r.KeyIdx)
		}
	}
	return s, nil
}
