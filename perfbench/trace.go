package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hostSpan is one host-time interval around a call into a layer. These
// are the benchmark's own spans on the host clock, distinct from the
// simulator's virtual-clock span tracer.
type hostSpan struct {
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the simulation's construction began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`      // index of the parent span in its run; -1 for the root
	N      int64  `json:"n,omitempty"` // work done: pages moved by a migrate call
}

// tracer keeps one simulation's spans in memory until it ends.
type tracer struct {
	id    int
	spans []hostSpan
	open  []int32
}

func newTracer(id int) *tracer {
	return &tracer{id: id, spans: make([]hostSpan, 0, 1<<14)}
}

func (t *tracer) begin(name string, now int64) {
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, hostSpan{Run: t.id, Name: name, Start: now, Parent: parent})
}

func (t *tracer) end(now, n int64) {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
	t.spans[i].N = n
}

// layerStat aggregates one span name over a simulation. Self time is a
// span's duration minus that of its child spans.
type layerStat struct {
	name        string
	depth       int
	calls       int64
	total, self int64 // ns
	n           int64
}

// layerStats aggregates spans by name, in order of first appearance.
func layerStats(spans []hostSpan) []*layerStat {
	self := make([]int64, len(spans))
	depth := make([]int, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
			depth[i] = depth[s.Parent] + 1
		}
	}
	var order []*layerStat
	byName := map[string]*layerStat{}
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{name: s.Name, depth: depth[i]}
			byName[s.Name] = st
			order = append(order, st)
		}
		st.calls++
		st.total += s.End - s.Start
		st.self += self[i]
		st.n += s.N
	}
	return order
}

// tracedRun is what the layer table keeps of a traced simulation once
// its spans are written out.
type tracedRun struct {
	stats []*layerStat
	scale float64 // to the nominal host speed
	wall  int64   // raw ns
}

// writeLayerTable prints the per-layer table: for each layer the median
// over the traced simulations of its calls, total and self time at the
// nominal host speed, and total and self time as a share of the
// simulation's wall time.
func writeLayerTable(w io.Writer, traced []tracedRun, overhead float64) {
	fmt.Fprintf(w, "%-22s %8s %11s %11s %8s %8s\n", "layer", "calls", "total_ms", "self_ms", "total%", "self%")
	for _, row := range traced[0].stats {
		var calls, total, self, ts, ss []float64
		for _, tr := range traced {
			for _, st := range tr.stats {
				if st.name != row.name {
					continue
				}
				wall := float64(tr.wall)
				calls = append(calls, float64(st.calls))
				total = append(total, tr.scale*float64(st.total)/1e6)
				self = append(self, tr.scale*float64(st.self)/1e6)
				ts = append(ts, 100*float64(st.total)/wall)
				ss = append(ss, 100*float64(st.self)/wall)
			}
		}
		fmt.Fprintf(w, "%-22s %8.0f %11.2f %11.2f %7.2f%% %7.2f%%\n",
			strings.Repeat("  ", row.depth)+row.name, median(calls), median(total), median(self), median(ts), median(ss))
	}
	fmt.Fprintf(w, "traced simulations: %d; trace.overhead_frac: %.4f\n", len(traced), overhead)
}

// spanFile writes the spans of traced simulations as JSON lines, each
// simulation's as soon as it ends.
type spanFile struct {
	f   *os.File
	bw  *bufio.Writer
	enc *json.Encoder
}

func createSpanFile(path string) (*spanFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	return &spanFile{f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

func (sf *spanFile) write(spans []hostSpan) error {
	for _, s := range spans {
		if err := sf.enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func (sf *spanFile) close() error {
	err := sf.bw.Flush()
	if cerr := sf.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
