package main

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	"beyondiv/internal/engine"
	"beyondiv/internal/interp"
	"beyondiv/internal/parse"
	"beyondiv/internal/xform"
)

// kernelSteps bounds one kernel execution; the kernels run well under it.
const kernelSteps = 50_000_000

// finalState is the part of a run the checks compare: the final value
// of every scalar the unoptimized program reports, and the final
// contents of every array cell written. Restructuring passes may
// permute the global store order, so the trace itself is not compared.
type finalState struct {
	scalars map[string]int64
	cells   map[string]map[int64]int64
}

func finalOf(r *interp.Result) finalState {
	f := finalState{scalars: r.Scalars, cells: map[string]map[int64]int64{}}
	for _, w := range r.Writes {
		row := f.cells[w.Array]
		if row == nil {
			row = map[int64]int64{}
			f.cells[w.Array] = row
		}
		row[w.Index] = w.Value
	}
	return f
}

// matches reports whether r ends in the reference state: every
// reference scalar has its reference value (optimization may add
// scalars, never change one) and the written cells agree exactly.
func (f finalState) matches(r *interp.Result) bool {
	for k, v := range f.scalars {
		if got, ok := r.Scalars[k]; !ok || got != v {
			return false
		}
	}
	return maps.EqualFunc(f.cells, finalOf(r).cells, maps.Equal[map[int64]int64])
}

// optimizeWorkload is optimize-run: one caller; each op optimizes one
// kernel with validation on, then executes the result sequentially
// (SSA interpreter) and chunked over its proved parallel loops.
type optimizeWorkload struct {
	in      []input
	cycle   []int
	eng     *engine.Engine
	ref     []finalState // interp.RunAST of the unoptimized source
	bad     []error
	workers int
}

func optimizeEngine(passes []engine.Pass, transforms []engine.TransformPass, skipValidation bool) *engine.Engine {
	return engine.New(engine.Config{Passes: passes, Transforms: transforms, SkipValidation: skipValidation})
}

// newOptimizeWorkload is the set-up: the reference run of each kernel's
// source, and one warm-up op per kernel.
func newOptimizeWorkload(in []input, seed int64) *optimizeWorkload {
	w := &optimizeWorkload{
		in:      in,
		cycle:   cycleOf(in, seed),
		eng:     optimizeEngine(analysisPasses(), xform.DefaultPasses(), false),
		ref:     make([]finalState, len(in)),
		bad:     make([]error, len(in)),
		workers: runtime.NumCPU(),
	}
	for i, x := range in {
		file, err := parse.File(x.src)
		if err == nil {
			var r *interp.Result
			if r, err = interp.RunAST(file, w.cfg(i)); err == nil {
				w.ref[i] = finalOf(r)
			}
		}
		if err != nil {
			w.bad[i] = fmt.Errorf("%s: reference run: %w", x.name, err)
			continue
		}
		if out, err := w.run(w.eng, i, nil, nil); err != nil {
			w.bad[i] = fmt.Errorf("%s: %w", x.name, err)
		} else if err := w.verify(i, out); err != nil {
			w.bad[i] = err
		}
	}
	return w
}

func (w *optimizeWorkload) cfg(i int) interp.Config {
	return interp.Config{Params: w.in[i].params, MaxSteps: kernelSteps}
}

func (w *optimizeWorkload) errors() []error { return w.bad }

// kernelRun is one op's outputs.
type kernelRun struct {
	opt          *engine.Optimized
	seq, chunked *interp.Result
}

// run performs one op on kernel i, recording its stage times in s and
// its spans in t when they are non-nil.
func (w *optimizeWorkload) run(eng *engine.Engine, i int, s *loopStats, t *tracer) (kernelRun, error) {
	var out kernelRun
	var err error
	stage := func(name string, f func()) {
		var id int
		if t != nil {
			id = t.begin(name)
		}
		t0 := time.Now()
		f()
		if s != nil {
			s.stage(name, i, time.Since(t0))
		}
		if t != nil {
			t.end(id)
		}
	}
	stage("optimize", func() { out.opt, err = eng.Optimize(w.in[i].src) })
	if err != nil {
		return out, err
	}
	stage("interp.ssa", func() { out.seq, err = interp.RunSSA(out.opt.State.SSA, w.cfg(i)) })
	if err != nil {
		return out, err
	}
	marks := map[string]bool{}
	for _, l := range out.opt.ParallelLoops {
		marks[l] = true
	}
	stage("interp.chunked", func() {
		out.chunked, err = interp.RunASTParallel(out.opt.State.File, w.cfg(i), marks, w.workers)
	})
	return out, err
}

// verify checks one op: the sequential result of the optimized kernel
// ends in the unoptimized reference state, and so does the chunked one.
func (w *optimizeWorkload) verify(i int, out kernelRun) error {
	if !w.ref[i].matches(out.seq) {
		return fmt.Errorf("%s: optimized sequential run differs from the unoptimized source", w.in[i].name)
	}
	if !w.ref[i].matches(out.chunked) {
		return fmt.Errorf("%s: chunked run differs from the sequential one", w.in[i].name)
	}
	return nil
}

func (w *optimizeWorkload) measure(dur time.Duration, allocs bool) *loopStats {
	return closedLoop(dur, 0, w.cycle, func(_, k int, s *loopStats) func() bool {
		out, err := w.run(w.eng, k, s, nil)
		if err != nil {
			return nil
		}
		return func() bool { return w.bad[k] == nil && w.verify(k, out) == nil }
	}, allocs)
}

// trace runs cycles passes over the kernels through an engine whose
// analysis and transform passes are wrapped in the benchmark's timers,
// adds a timed AST-interpreter run of each optimized kernel, and then
// measures validation cost against SkipValidation, into v.
func (w *optimizeWorkload) trace(t *tracer, cycles int, v map[string]float64) *loopStats {
	eng := optimizeEngine(tracedPasses(t, analysisPasses()), tracedTransforms(t, xform.DefaultPasses()), false)
	rounds, stores := 0.0, 0.0
	st := closedLoop(0, cycles*len(w.cycle), w.cycle, func(i, k int, _ *loopStats) func() bool {
		t.op = i
		t.xformSeen = false
		id := t.begin("op")
		out, err := w.run(eng, k, nil, t)
		if err == nil {
			a := t.begin("interp.ast")
			_, err = interp.RunAST(out.opt.State.File, w.cfg(k))
			t.end(a)
		}
		t.end(id)
		if err != nil {
			return nil
		}
		rounds += float64(out.opt.Rounds)
		stores += float64(len(out.seq.Writes))
		return func() bool { return w.bad[k] == nil && w.verify(k, out) == nil }
	}, false)
	v["xform.rounds"], v["interp.stores"] = rounds/float64(st.ops), stores/float64(st.ops)
	v["validate.ms"], v["validate.share"] = w.validationCost()
	return st
}

// validationCost is the mean over kernels of Optimize time minus
// Optimize time with SkipValidation (each the median of five
// interleaved runs), and that difference's share of Optimize time.
func (w *optimizeWorkload) validationCost() (float64, float64) {
	skip := optimizeEngine(analysisPasses(), xform.DefaultPasses(), true)
	var diff, total float64
	for _, x := range w.in {
		var with, without []float64
		for r := 0; r < 5; r++ {
			for j, eng := range []*engine.Engine{w.eng, skip} {
				t0 := time.Now()
				_, _ = eng.Optimize(x.src) // outputs are checked in the measured loops
				d := ms(time.Since(t0))
				if j == 0 {
					with = append(with, d)
				} else {
					without = append(without, d)
				}
			}
		}
		diff += median(with) - median(without)
		total += median(with)
	}
	return diff / float64(len(w.in)), ratio(diff, total)
}
