package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share op; parent indexes the enclosing span (-1 for an
// operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps a run's spans in memory; write stores them when the run
// ends. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int // innermost open span, -1 when none
	op    int
	// allocs accumulates runtime.MemStats.Mallocs deltas per span name,
	// for the layers whose allocations are reported.
	allocs map[string]uint64
	// counts accumulates per-layer work counts (and the re-analysis
	// time inside Optimize, optimize.analysis_ms).
	counts map[string]float64
	// xformSeen marks that the current op has run a transform pass, so
	// later analysis passes are Optimize's re-analysis.
	xformSeen bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, allocs: map[string]uint64{}, counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.cur = t.spans[id].Parent
}

// add records a finished span with explicit bounds (a server-reported
// child of a client span).
func (t *tracer) add(name string, parent int, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: start, End: end})
}

// selfTimes fills Self: a span's duration minus the part its children
// cover (children never overlap one another, since each layer call
// returns before the next starts).
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// selfMS returns the total self time per span name, in milliseconds,
// and the number of spans of each name.
func (t *tracer) selfMS() (map[string]float64, map[string]int) {
	tot, n := map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		tot[s.Name] += float64(s.Self) / 1e6
		n[s.Name]++
	}
	return tot, n
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readMemStats reads MemStats inside a span of its own, so the
// stop-the-world read is not charged to the enclosing span's self time.
func (t *tracer) readMemStats(m *runtime.MemStats) {
	id := t.begin("trace.memstats")
	runtime.ReadMemStats(m)
	t.end(id)
}

// allocLayers are the analysis passes whose allocations are reported.
var allocLayers = map[string]bool{"parse": true, "iv": true, "depend": true}

// analysisPasses is the facade's analysis pipeline: the engine
// frontend, the classifier and the dependence tester.
func analysisPasses() []engine.Pass {
	return append(engine.Frontend(), iv.ClassifyPass(iv.Options{}), depend.Pass(depend.Options{}))
}

// tracedPasses wraps each pass's Run in a span, reads MemStats around
// the passes in allocLayers, and records each pass's output size.
func tracedPasses(t *tracer, passes []engine.Pass) []engine.Pass {
	out := make([]engine.Pass, len(passes))
	for i, p := range passes {
		run, name := p.Run, p.Name
		p.Run = func(st *engine.State) error {
			var before, after runtime.MemStats
			if allocLayers[name] {
				t.readMemStats(&before)
			}
			id := t.begin(name)
			err := run(st)
			t.end(id)
			if t.xformSeen {
				t.counts["optimize.analysis_ms"] += float64(t.spans[id].End-t.spans[id].Start) / 1e6
			}
			if allocLayers[name] {
				t.readMemStats(&after)
				t.allocs[name] += after.Mallocs - before.Mallocs
			}
			if err == nil {
				countPass(t, name, st)
			}
			return err
		}
		out[i] = p
	}
	return out
}

// countPass records the work counts a finished pass leaves in the state.
func countPass(t *tracer, name string, st *engine.State) {
	switch name {
	case "ssa":
		t.counts["ssa.values"] += float64(st.SSA.Func.NumValues())
	case "iv":
		t.counts["iv.loops"] += float64(len(st.Forest.Loops))
	case "depend":
		if r := depend.ResultOf(st); r != nil {
			t.counts["depend.independent"] += float64(r.Independent)
			t.counts["depend.pairs"] += float64(r.Independent + len(r.Deps))
		}
	}
}

// tracedTransforms wraps each transform pass's Run in a span and counts
// its rewrites.
func tracedTransforms(t *tracer, passes []engine.TransformPass) []engine.TransformPass {
	out := make([]engine.TransformPass, len(passes))
	for i, p := range passes {
		run, name := p.Run, "xform."+p.Name
		p.Run = func(st *engine.State) (int, error) {
			t.xformSeen = true
			id := t.begin(name)
			n, err := run(st)
			t.end(id)
			t.counts[name+".rewrites"] += float64(n)
			return n, err
		}
		out[i] = p
	}
	return out
}
