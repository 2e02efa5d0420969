package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"mtm"
)

// tiny shortens a workload so a test run takes well under a second.
func tiny(s spec) spec {
	s.ops = 0.05
	return s
}

// The harness must produce exactly what mtm.Run produces for the same
// Config, with and without layer tracing. This catches a second
// Workload.Init (it re-touches the footprint and changes TotalAccesses)
// and a solution wrapper that hides Regions from the fidelity oracle.
func TestHarnessMatchesRun(t *testing.T) {
	for _, s := range specs {
		s := tiny(s)
		t.Run(s.name, func(t *testing.T) {
			res, err := mtm.Run(s.config(3), s.workload, s.solution)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				r, err := runSim(s, 3, traced, 0)
				if err != nil {
					t.Fatal(err)
				}
				if r.err != nil {
					t.Fatalf("traced=%v: %v", traced, r.err)
				}
				if !bytes.Equal(r.json, want) {
					t.Errorf("traced=%v: harness Result differs from mtm.Run", traced)
				}
				if len(r.ticks) != res.Intervals {
					t.Errorf("traced=%v: %d interval timestamps for %d intervals", traced, len(r.ticks), res.Intervals)
				}
			}
			if s.observed && (res.Fidelity == nil || res.Fidelity.Scored == 0) {
				t.Errorf("observed workload scored no fidelity samples")
			}
		})
	}
}

// The seed reaches Config.Seed and leaves FaultSeed to its default of
// Seed+1; different seeds give different simulations and one seed
// repeats exactly.
func TestSeedPlumbing(t *testing.T) {
	s := tiny(specs[0])
	if c := s.config(7); c.Seed != 7 || c.FaultSeed != 0 {
		t.Fatalf("config(7): Seed=%d FaultSeed=%d, want 7 and 0", c.Seed, c.FaultSeed)
	}
	var rs []*run
	for _, seed := range []int64{1, 2, 1} {
		r, err := runSim(s, seed, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		rs = append(rs, r)
	}
	if !bytes.Equal(rs[0].json, rs[2].json) {
		t.Error("seed 1 did not repeat")
	}
	if rs[0].res.ExecTime == rs[1].res.ExecTime {
		t.Errorf("seeds 1 and 2 gave the same ExecTime %v", rs[0].res.ExecTime)
	}
}

// Self time is a span's duration minus its children's.
func TestLayerStatsSelfTime(t *testing.T) {
	spans := []hostSpan{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "work", Start: 10, End: 40, Parent: 0},
		{Name: "work", Start: 50, End: 70, Parent: 0},
		{Name: "inner", Start: 55, End: 60, Parent: 2, N: 3},
	}
	want := map[string]layerStat{
		"run":   {calls: 1, total: 100, self: 50},
		"work":  {calls: 2, total: 50, self: 45},
		"inner": {calls: 1, total: 5, self: 5, n: 3},
	}
	for _, st := range layerStats(spans) {
		w := want[st.name]
		if st.calls != w.calls || st.total != w.total || st.self != w.self || st.n != w.n {
			t.Errorf("%s: got %+v, want %+v", st.name, *st, w)
		}
	}
}

// BENCHMARK.json names the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// Host times are reported at the nominal host speed: a run whose
// reference kernel took twice refNominal reports half its raw times.
func TestHostTimesScaleToNominalSpeed(t *testing.T) {
	r := &run{
		ref:     2 * refNominal,
		ticks:   []int64{2e6, 6e6},
		loopEnd: 10e6,
		wall:    12e6,
		res:     &mtm.Result{TotalAccesses: 1500, ExecTime: 3e9},
	}
	r.loopAccesses0 = 500
	got := endToEndValues(r)
	want := map[string]float64{
		"setup_s":         0.001,
		"wall_s":          0.006,
		"interval_ms_p50": 2,
		"accesses_per_s":  1000 / 0.004,
		"sim_exec_s":      3,
	}
	for name, w := range want {
		if g := got[name]; g < w*0.999999 || g > w*1.000001 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}
