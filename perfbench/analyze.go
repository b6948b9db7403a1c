package main

import (
	"fmt"
	"strings"
	"time"

	"beyondiv"
	"beyondiv/internal/codec"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
	"beyondiv/internal/paper"
)

// reports is the observable output of one analysis.
type reports struct{ class, deps string }

func programReports(p *beyondiv.Program) reports {
	return reports{p.ClassificationReport(), p.DependenceReport()}
}

func stateReports(st *engine.State) reports {
	r := reports{class: iv.AnalysisOf(st).Report()}
	if d := depend.ResultOf(st); d != nil {
		r.deps = d.Report()
	}
	return r
}

// meetsPaper checks a corpus program's classifications and trip counts
// against the values the paper reports.
func meetsPaper(a *iv.Analysis, p *paper.Program) error {
	for _, e := range p.Expect {
		l, v := a.LoopByLabel(e.Loop), a.ValueByName(e.Value)
		if l == nil || v == nil {
			return fmt.Errorf("%s: no value %s in loop %s", p.ID, e.Value, e.Loop)
		}
		got := a.ClassOf(l, v).String()
		if e.Nested {
			got = a.NestedString(a.ClassOf(l, v))
		}
		if got != e.Want && !(e.PrefixOnly && strings.HasPrefix(got, e.Want)) {
			return fmt.Errorf("%s: %s/%s = %s, paper says %s", p.ID, e.Loop, e.Value, got, e.Want)
		}
	}
	for label, want := range p.TripCounts {
		l := a.LoopByLabel(label)
		if l == nil {
			return fmt.Errorf("%s: no loop %s", p.ID, label)
		}
		if got := a.TripCount(l).String(); got != want {
			return fmt.Errorf("%s: trip(%s) = %s, paper says %s", p.ID, label, got, want)
		}
	}
	return nil
}

// analyzeWorkload is analyze-cold and analyze-large: one caller cycling
// beyondiv.Analyzer.Analyze (default Options, no cache) over the inputs.
type analyzeWorkload struct {
	in    []input
	cycle []int
	an    *beyondiv.Analyzer
	ref   []reports // setup-time report of each input
	bad   []error   // setup-time check failure of each input
}

// newAnalyzeWorkload is the set-up: one warm-up analysis of every
// input, whose reports become the reference and whose corpus entries
// must meet the paper.
func newAnalyzeWorkload(in []input, seed int64) *analyzeWorkload {
	w := &analyzeWorkload{in: in, cycle: cycleOf(in, seed), an: beyondiv.NewAnalyzer(beyondiv.Options{}),
		ref: make([]reports, len(in)), bad: make([]error, len(in))}
	for i, x := range in {
		p, err := w.an.Analyze(x.src)
		if err != nil {
			w.bad[i] = fmt.Errorf("%s: %w", x.name, err)
			continue
		}
		w.ref[i] = programReports(p)
		if x.expect != nil {
			w.bad[i] = meetsPaper(p.IV, x.expect)
		}
	}
	return w
}

// checkSequential confirms that the default-width reports equal the
// sequential pipeline's (Parallel=1). Run once, outside measurement.
func (w *analyzeWorkload) checkSequential() {
	seq := beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1})
	for i, x := range w.in {
		if w.bad[i] != nil {
			continue
		}
		p, err := seq.Analyze(x.src)
		if err != nil {
			w.bad[i] = fmt.Errorf("%s: Parallel=1: %w", x.name, err)
		} else if programReports(p) != w.ref[i] {
			w.bad[i] = fmt.Errorf("%s: Parallel=1 reports differ from the default width", x.name)
		}
	}
}

func (w *analyzeWorkload) errors() []error { return w.bad }

func (w *analyzeWorkload) measure(dur time.Duration, allocs bool) *loopStats {
	return closedLoop(dur, 0, w.cycle, func(_, k int, _ *loopStats) func() bool {
		p, err := w.an.Analyze(w.in[k].src)
		if err != nil {
			return nil
		}
		return func() bool { return w.bad[k] == nil && programReports(p) == w.ref[k] }
	}, allocs)
}

// trace runs cycles passes over the inputs through an engine whose
// passes are wrapped in the benchmark's timers, then times each input
// sequentially and at the default width for par.speedup, into v.
func (w *analyzeWorkload) trace(t *tracer, cycles int, v map[string]float64) *loopStats {
	eng := engine.New(engine.Config{Passes: tracedPasses(t, analysisPasses())})
	st := closedLoop(0, cycles*len(w.cycle), w.cycle, func(i, k int, _ *loopStats) func() bool {
		t.op = i
		id := t.begin("analyze")
		s, err := eng.Analyze(w.in[k].src)
		t.end(id)
		if err != nil {
			return nil
		}
		h := t.begin("codec.hash")
		codec.StructuralHash(s.File)
		t.end(h)
		return func() bool { return w.bad[k] == nil && stateReports(s) == w.ref[k] }
	}, false)
	v["par.speedup"] = w.parSpeedup()
	return st
}

// parSpeedup is the geometric mean over inputs of the ratio of an
// input's sequential (Parallel=1) analysis time to its default-width
// time, each the best of three interleaved runs.
func (w *analyzeWorkload) parSpeedup() float64 {
	seq := beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1})
	var ratios []float64
	for _, x := range w.in {
		best := [2]time.Duration{time.Hour, time.Hour}
		for r := 0; r < 3; r++ {
			for j, an := range []*beyondiv.Analyzer{seq, w.an} {
				t0 := time.Now()
				_, _ = an.Analyze(x.src) // outputs are checked in the measured loops
				best[j] = min(best[j], time.Since(t0))
			}
		}
		ratios = append(ratios, float64(best[0])/float64(best[1]))
	}
	return geomean(ratios)
}
