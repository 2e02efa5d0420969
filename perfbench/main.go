// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (a simulator workload under a solution, see workloads.go)
// repeatedly for a fixed host time and reports the medians over the
// simulations it completed.
//
//	perfbench --workload gups-mtm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// instrument but a host timestamp per interval. With --trace 1 it
// alternates untraced simulations with traced ones, which record a
// host-time span around every call into a wrapped layer; it prints the
// per-layer table, writes the spans as JSON lines, and reports the
// per-layer metrics. Host times are scaled to a nominal host speed by a
// reference kernel timed before each simulation (speed.go). Every
// simulation is checked: it must complete, pass Engine.Audit, and
// produce a Result byte-identical to the first of the invocation. The
// last line of standard output is the JSON result.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of mtmsim waits on or gets from a run.
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s"},
	{"wall_s", "s"},
	{"interval_ms_p50", "ms"},
	{"interval_ms_p90", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_mb", "MB"},
	{"sim_exec_s", "s"},
}

// perLayer lists the per-layer metrics of a traced run. Names ending in
// _ms, _share and ns_per_access are host time; the sim.*, migrate.*_mb,
// admission.* and fidelity.* counts are simulated and repeat exactly for
// a seed.
var perLayer = []metricDef{
	{"setup.engine_ms", "ms"},
	{"setup.init_ms", "ms"},
	{"workload.ms", "ms"},
	{"workload.share", "ratio"},
	{"workload.ns_per_access", "ns"},
	{"profiler.ms", "ms"},
	{"profiler.calls", "count"},
	{"profiler.share", "ratio"},
	{"policy.start_ms", "ms"},
	{"policy.end_ms", "ms"},
	{"policy.self_ms", "ms"},
	{"policy.share", "ratio"},
	{"migrate.ms", "ms"},
	{"migrate.calls", "count"},
	{"migrate.pages", "count"},
	{"migrate.promoted_mb", "MB"},
	{"migrate.demoted_mb", "MB"},
	{"migrate.migrated_mb", "MB"},
	{"migrate.wasted_mb", "MB"},
	{"migrate.aborts", "count"},
	{"migrate.useful_frac", "ratio"},
	{"admission.admits", "count"},
	{"admission.defers", "count"},
	{"admission.rejects", "count"},
	{"admission.thrash_suppressed", "count"},
	{"sim.engine_ms", "ms"},
	{"sim.intervals", "count"},
	{"sim.accesses", "count"},
	{"sim.app_s", "s"},
	{"sim.profiling_s", "s"},
	{"sim.migration_s", "s"},
	{"sim.background_s", "s"},
	{"fidelity.precision", "ratio"},
	{"fidelity.recall", "ratio"},
	{"export.build_ms", "ms"},
	{"export.result_json_ms", "ms"},
	{"export.result_bytes", "bytes"},
	{"export.spans_kept", "count"},
	{"export.spans_dropped", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

const mib = 1 << 20

// endToEndValues derives the end-to-end metrics of one checked run.
// Host times are scaled to the nominal host speed.
func endToEndValues(r *run) map[string]float64 {
	k := r.scale()
	n := len(r.ticks)
	iv := make([]float64, n)
	for i, t := range r.ticks {
		next := r.loopEnd
		if i+1 < n {
			next = r.ticks[i+1]
		}
		iv[i] = k * float64(next-t) / 1e6
	}
	loop := k * float64(r.loopEnd-r.ticks[0]) / 1e9
	return map[string]float64{
		"accesses_per_s":  float64(r.res.TotalAccesses-r.loopAccesses0) / loop,
		"wall_s":          k * float64(r.wall) / 1e9,
		"interval_ms_p50": quantile(iv, 0.5),
		"interval_ms_p90": quantile(iv, 0.9),
		"setup_s":         k * float64(r.ticks[0]) / 1e9,
		"live_heap_mb":    float64(r.peakLive-r.baseLive) / mib,
		"alloc_mb":        float64(r.allocBytes) / mib,
		"sim_exec_s":      r.res.ExecTime.Seconds(),
	}
}

// layerValues derives the per-layer metrics of one traced run from the
// run and the layer statistics of its spans, except the runtime.*,
// host.* and trace.* ones, which come from the untraced runs. Host times
// are scaled to the nominal host speed.
func layerValues(r *run, stats []*layerStat) map[string]float64 {
	k := r.scale()
	ms := func(ns int64) float64 { return k * float64(ns) / 1e6 }
	st := map[string]*layerStat{}
	for _, s := range stats {
		st[s.name] = s
	}
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	var prof layerStat
	for _, name := range []string{"profiler.attach", "profiler.start", "profiler.profile"} {
		s := get(name)
		prof.calls += s.calls
		prof.total += s.total
	}
	wall := float64(r.wall)
	wl, mig := get("workload"), get("migrate")
	policySelf := get("policy.start").self + get("policy.end").self
	res := r.res
	v := map[string]float64{
		"setup.engine_ms":        ms(get("setup.engine").total),
		"setup.init_ms":          ms(get("setup.init").total),
		"workload.ms":            ms(wl.total),
		"workload.share":         float64(wl.total) / wall,
		"workload.ns_per_access": k * float64(wl.total) / float64(res.TotalAccesses-r.loopAccesses0),
		"profiler.ms":            ms(prof.total),
		"profiler.calls":         float64(prof.calls),
		"profiler.share":         float64(prof.total) / wall,
		"policy.start_ms":        ms(get("policy.start").total),
		"policy.end_ms":          ms(get("policy.end").total),
		"policy.self_ms":         ms(policySelf),
		"policy.share":           float64(policySelf) / wall,
		"migrate.ms":             ms(mig.total),
		"migrate.calls":          float64(mig.calls),
		"migrate.pages":          float64(mig.n),
		"sim.engine_ms":          ms(get("interval").self),
		"export.build_ms":        ms(get("export.result").total),
		"export.result_json_ms":  ms(get("export.json").total),
	}
	for name, x := range simulatedValues(r) {
		v[name] = x
	}
	v["export.result_bytes"] = float64(len(r.json))
	return v
}

// simulatedValues are the virtual-time statistics of a run: they depend
// only on the configuration and seed.
func simulatedValues(r *run) map[string]float64 {
	res := r.res
	useful := 0.0
	if res.MigratedBytes > 0 {
		useful = 1 - float64(res.WastedBytes)/float64(res.MigratedBytes)
	}
	v := map[string]float64{
		"migrate.promoted_mb":         float64(res.PromotedBytes) / mib,
		"migrate.demoted_mb":          float64(res.DemotedBytes) / mib,
		"migrate.migrated_mb":         float64(res.MigratedBytes) / mib,
		"migrate.wasted_mb":           float64(res.WastedBytes) / mib,
		"migrate.aborts":              float64(res.MigrationAborts),
		"migrate.useful_frac":         useful,
		"admission.admits":            float64(res.AdmissionAdmits),
		"admission.defers":            float64(res.AdmissionDefers),
		"admission.rejects":           float64(res.AdmissionRejects),
		"admission.thrash_suppressed": float64(res.ThrashSuppressed),
		"sim.intervals":               float64(res.Intervals),
		"sim.accesses":                float64(res.TotalAccesses),
		"sim.app_s":                   res.App.Seconds(),
		"sim.profiling_s":             res.Profiling.Seconds(),
		"sim.migration_s":             res.Migration.Seconds(),
		"sim.background_s":            res.Background.Seconds(),
		"fidelity.precision":          0,
		"fidelity.recall":             0,
		"export.spans_kept":           0,
		"export.spans_dropped":        0,
	}
	if f := res.Fidelity; f != nil {
		v["fidelity.precision"] = f.MeanPrecision
		v["fidelity.recall"] = f.MeanRecall
	}
	if s := res.Spans; s != nil {
		v["export.spans_kept"] = float64(len(s.Spans))
		v["export.spans_dropped"] = float64(s.Dropped)
	}
	return v
}

// medians reduces per-run metric maps to the median of each metric.
func medians(samples []map[string]float64, defs []metricDef) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		xs := make([]float64, 0, len(samples))
		for _, s := range samples {
			if x, ok := s[d.name]; ok {
				xs = append(xs, x)
			}
		}
		out[d.name] = median(xs)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "benchmark workload: gups-mtm, sssp-mtm or pingpong-hemem-observed")
	seed := flag.Int64("seed", 1, "simulation seed (mtm.Config.Seed)")
	seconds := flag.Int("seconds", 20, "host seconds to keep starting simulations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, layer table and span file")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	s, err := lookup(*workload)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	// At least two simulations of each kind run, so every invocation
	// checks that its Result repeats.
	minRuns := 2
	if *trace == 1 {
		minRuns = 4
	}
	var (
		out    = result{Metrics: map[string]metricValue{}}
		first  *[sha256.Size]byte // digest of the first Result
		traced []tracedRun
		// Scaled wall times, for trace.overhead_frac.
		tracedWalls, untracedWalls []float64
		e2e, layer, rtime          []map[string]float64
		spans                      *spanFile
	)
	spansPath := filepath.Join(".bench_build", "perfbench", s.name+".spans.jsonl")
	if *trace == 1 {
		if spans, err = createSpanFile(spansPath); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	before, err := referenceTime()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		isTraced := *trace == 1 && i%2 == 1
		r, err := runSim(s, *seed, isTraced, i)
		if err != nil {
			return err
		}
		after, err := referenceTime()
		if err != nil {
			return err
		}
		// The host's speed during the simulation: the mean of the
		// reference timings on either side of it.
		r.ref = (before + after) / 2
		before = after
		out.Attempted++
		if r.err == nil {
			sum := sha256.Sum256(r.json)
			if first == nil {
				first = &sum
			} else if sum != *first {
				r.err = errors.New("Result differs from the first simulation of this seed")
			}
		}
		if r.err != nil {
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: simulation %d failed: %v\n", i, r.err)
			continue
		}
		// Only metric values outlive this iteration: the Result, the
		// interval timestamps and the spans are dropped with r, so one
		// simulation's output does not grow the heap the next one starts
		// from.
		if isTraced {
			stats := layerStats(r.tr.spans)
			if err := spans.write(r.tr.spans); err != nil {
				return fmt.Errorf("span file: %w", err)
			}
			traced = append(traced, tracedRun{stats, r.scale(), r.wall})
			tracedWalls = append(tracedWalls, r.scale()*float64(r.wall))
			layer = append(layer, layerValues(r, stats))
		} else {
			untracedWalls = append(untracedWalls, r.scale()*float64(r.wall))
			e2e = append(e2e, endToEndValues(r))
			rtime = append(rtime, map[string]float64{
				"runtime.gc_cycles":   float64(r.gcCycles),
				"runtime.gc_pause_ms": r.scale() * float64(r.gcPause) / 1e6,
				"host.ref_ms":         float64(r.ref) / 1e6,
			})
		}
	}
	out.Correct = out.Failed == 0

	defs, vals := endToEnd, medians(e2e, endToEnd)
	if *trace == 1 {
		if err := spans.close(); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
		defs = perLayer
		vals = medians(append(layer, rtime...), perLayer)
		if len(traced) > 0 && len(untracedWalls) > 0 {
			vals["trace.overhead_frac"] = median(tracedWalls)/median(untracedWalls) - 1
			writeLayerTable(os.Stdout, traced, vals["trace.overhead_frac"])
		}
		fmt.Printf("host-time spans: %s\n", spansPath)
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}
