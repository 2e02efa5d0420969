package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"mtm"
	"mtm/internal/migrate"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// run is one simulation, built and driven the way mtm.Run does it, with
// host-clock instruments attached from outside through the public
// interfaces. All times are raw nanoseconds since t0, the start of
// construction; scale converts them to the nominal host speed.
type run struct {
	t0  time.Time
	ref time.Duration // the reference kernel's time around the run (set by the caller)
	tr  *tracer       // nil in an untraced run

	// ticks holds one timestamp per interval, taken at
	// Solution.IntervalStart; it is the untraced run's only per-interval
	// instrument besides the live-heap sample.
	ticks []int64
	// loopEnd is when the interval loop ended: the first Workload.Done
	// that reports true, or sim.Run's return if the loop ended otherwise.
	loopEnd int64
	wall    int64 // construction through Result JSON export

	loopAccesses0 int64 // Engine.TotalAccesses at the first interval
	live          []metrics.Sample
	// baseLive is the live heap before construction: what the benchmark
	// itself holds, such as the metric values of earlier simulations.
	baseLive, peakLive uint64

	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration

	res  *mtm.Result
	json []byte
	err  error // run, export, audit or completion failure
}

func (r *run) since() int64 { return int64(time.Since(r.t0)) }

// scale is the factor that converts this run's host times to the
// nominal host speed (see speed.go).
func (r *run) scale() float64 { return float64(refNominal) / float64(r.ref) }

func (r *run) begin(name string) {
	if r.tr != nil {
		r.tr.begin(name, r.since())
	}
}

func (r *run) end() {
	if r.tr != nil {
		r.tr.end(r.since(), 0)
	}
}

// tick marks the start of an interval.
func (r *run) tick(e *sim.Engine) {
	now := r.since()
	if len(r.ticks) == 0 {
		r.loopAccesses0 = e.TotalAccesses
		r.begin("loop")
	} else {
		r.end() // the previous interval
	}
	r.ticks = append(r.ticks, now)
	metrics.Read(r.live)
	if v := r.live[0].Value.Uint64(); v > r.peakLive {
		r.peakLive = v
	}
	r.begin("interval")
}

// endLoop marks the end of the interval loop; what follows until
// sim.Run returns is the Result build.
func (r *run) endLoop() {
	r.loopEnd = r.since()
	if len(r.ticks) > 0 {
		r.end() // the last interval
		r.end() // the loop
	}
	r.begin("export.result")
}

// runSim builds and runs one simulation of s at seed. With traced set,
// every call into a wrapped layer is recorded as a host-time span under
// run id. The returned error is a configuration error; a run that fails
// or misses an output check reports it in run.err.
func runSim(s spec, seed int64, traced bool, id int) (*run, error) {
	cfg := s.config(seed)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &run{
		ticks: make([]int64, 0, mtm.MaxIntervals),
		live:  []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	if traced {
		r.tr = newTracer(id)
	}
	// Each simulation starts, outside the timed region, from a collected
	// heap whose free memory is returned to the OS, as in a fresh
	// process: garbage from the previous simulation is not billed to it,
	// and how much memory the background scavenger happened to release
	// does not change how many page faults its set-up takes.
	debug.FreeOSMemory()
	metrics.Read(r.live)
	r.baseLive = r.live[0].Value.Uint64()
	r.peakLive = r.baseLive
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	r.t0 = time.Now()
	r.begin("run")
	r.begin("setup.engine")
	// Same order as mtm.Run: workload, solution, engine.
	w, err := mtm.NewWorkload(s.workload, cfg)
	if err != nil {
		return nil, err
	}
	sol, err := mtm.NewSolution(s.solution, cfg)
	if err != nil {
		return nil, err
	}
	e := mtm.NewEngine(cfg)
	r.end()
	if traced {
		instrumentLayers(sol, r)
	}
	// sim.Run calls Workload.Init itself; calling it here too would
	// re-touch the footprint and change the Result.
	res, runErr := sim.Run(e, &benchWorkload{w, r}, &benchSolution{sol, r}, mtm.MaxIntervals)
	if r.loopEnd == 0 {
		r.endLoop()
	}
	r.end() // export.result
	r.begin("export.json")
	js, jsonErr := json.Marshal(res)
	r.end()
	r.end() // run
	r.wall = r.since()
	runtime.ReadMemStats(&m1)

	r.res, r.json = res, js
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.err = errors.Join(runErr, jsonErr, e.Audit())
	if r.err == nil && (res == nil || !res.Completed || res.Truncated) {
		r.err = fmt.Errorf("run incomplete (completed=%v truncated=%v)", res != nil && res.Completed, res != nil && res.Truncated)
	}
	return r, nil
}

// instrumentLayers wraps the profiler and migration mechanism of the
// solutions that export them. HeMem keeps its mechanism unexported, so
// its migration time stays inside policy self time.
func instrumentLayers(sol sim.Solution, r *run) {
	var m *policy.MTM
	switch p := sol.(type) {
	case *policy.MTM:
		m = p
	case *policy.Nomad:
		m = &p.MTM
	default:
		return
	}
	m.Prof = &benchProfiler{m.Prof, r}
	m.Mech = &benchMechanism{m.Mech, r}
}

// benchWorkload times the workload layer: Init (set-up) and RunInterval
// (the access path), and stamps the end of the interval loop.
type benchWorkload struct {
	sim.Workload
	r *run
}

func (w *benchWorkload) Init(e *sim.Engine) {
	w.r.begin("setup.init")
	w.Workload.Init(e)
	w.r.end()
}

func (w *benchWorkload) RunInterval(e *sim.Engine) {
	w.r.begin("workload")
	w.Workload.RunInterval(e)
	w.r.end()
}

func (w *benchWorkload) Done() bool {
	d := w.Workload.Done()
	if d && w.r.loopEnd == 0 {
		w.r.endLoop()
	}
	return d
}

// benchSolution times the policy layer's interval hooks. Place runs in
// the fault path of every first touch and is left untimed: its time
// falls in the workload or set-up span that caused the fault.
type benchSolution struct {
	sim.Solution
	r *run
}

func (s *benchSolution) IntervalStart(e *sim.Engine) {
	s.r.tick(e)
	s.r.begin("policy.start")
	s.Solution.IntervalStart(e)
	s.r.end()
}

func (s *benchSolution) IntervalEnd(e *sim.Engine) {
	s.r.begin("policy.end")
	s.Solution.IntervalEnd(e)
	s.r.end()
}

// Regions forwards the profiled region table. The fidelity oracle finds
// it by type assertion on the solution; a wrapper without it would
// silently empty the oracle's estimate.
func (s *benchSolution) Regions() []*region.Region {
	if re, ok := s.Solution.(interface{ Regions() []*region.Region }); ok {
		return re.Regions()
	}
	return nil
}

type benchProfiler struct {
	profiler.Profiler
	r *run
}

func (p *benchProfiler) Attach(e *sim.Engine) {
	p.r.begin("profiler.attach")
	p.Profiler.Attach(e)
	p.r.end()
}

func (p *benchProfiler) IntervalStart(e *sim.Engine) {
	p.r.begin("profiler.start")
	p.Profiler.IntervalStart(e)
	p.r.end()
}

func (p *benchProfiler) Profile(e *sim.Engine) {
	p.r.begin("profiler.profile")
	p.Profiler.Profile(e)
	p.r.end()
}

type benchMechanism struct {
	migrate.Mechanism
	r *run
}

func (m *benchMechanism) Migrate(e *sim.Engine, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) migrate.Report {
	m.r.begin("migrate")
	rep := m.Mechanism.Migrate(e, v, start, end, dst, maxPages)
	m.r.tr.end(m.r.since(), int64(rep.MovedPages))
	return rep
}
