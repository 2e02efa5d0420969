package main

import (
	"fmt"

	"mtm"
	"mtm/internal/span"
)

// Every workload runs at mtmsim's default machine scale with the
// sharded phases two wide, which matches the two-vCPU box the bounds in
// BENCHMARK.json were measured on. The OpsFactor of each is sized so one
// simulation runs 100+ profiling intervals: the interval p90 then has at
// least ten samples beyond it.
const (
	benchScale       = 256
	benchParallelism = 2
)

// spec is one benchmark workload: a simulator workload under a solution
// with a fixed configuration; only the seed varies between runs.
type spec struct {
	name     string
	workload string // mtm.NewWorkload name
	solution string // mtm.NewSolution name
	ops      float64
	observed bool // admission learning, fidelity, metrics and span tracing on
}

var specs = []spec{
	// Uniform-random 50/50 updates over a large table: ~97% of host time
	// is the access path. The MTM PTE scan is the only other layer that
	// shows; set-up is trivial.
	{name: "gups-mtm", workload: "gups", solution: "mtm", ops: 2},
	// 95% reads chasing pointers through CSR arrays: the same access path
	// under a different pattern, plus the one real set-up cost (the graph
	// build in Workload.Init).
	{name: "sssp-mtm", workload: "sssp", solution: "mtm", ops: 0.8},
	// Thrash generator under HeMem with every observability layer on:
	// HeMem's per-sample region lookup makes the policy layer visible, and
	// the engine bookkeeping, admission, fidelity and export layers all do
	// their work here and nowhere else.
	{name: "pingpong-hemem-observed", workload: "pingpong", solution: "hemem", ops: 3, observed: true},
}

func lookup(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config is the mtm.Config of one run. FaultSeed is left zero, so the
// fault injector's stream defaults to seed+1.
func (s spec) config(seed int64) mtm.Config {
	c := mtm.DefaultConfig()
	c.Scale = benchScale
	c.Seed = seed
	c.OpsFactor = s.ops
	c.Parallelism = benchParallelism
	if s.observed {
		c.AdmissionLearn = true
		c.Fidelity = true
		c.Metrics = true
		c.Trace = &span.Config{}
	}
	return c
}
