// Command perfbench is the repository's benchmark: four seeded,
// closed-loop workloads over the beyondiv pipeline, each checking every
// output it measures.
//
//	analyze-cold   1 caller: beyondiv.Analyzer.Analyze, default Options, no
//	               cache, over the paper corpus, the examples and 1000
//	               dependence workloads
//	analyze-large  1 caller: Analyze of progen.Large(4..12) at the default
//	               intra-run width
//	optimize-run   1 caller: engine Optimize with validation of nine
//	               kernels, then a sequential and a chunked execution
//	serve-cache    2 connections to a bivd subprocess: hot analyses, edited
//	               and fresh programs against a persistent cache, and
//	               optimizations
//
// Run it from the repository root after building it and cmd/bivd (run.sh
// does both):
//
//	perfbench --workload analyze-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, with tracing
// off. With --trace 1 it spends half its time untraced and half traced:
// it wraps each engine pass and transform pass, and times its own calls
// into the interpreters, the validator, the codec and the server, then
// reports the per-layer metrics and writes the spans to a file. The last
// line of standard output is the result as JSON; the line before it
// records the host and the sample counts.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout: examples/ is read from here
	work     string // scratch space: daemon caches and span files
	bivd     string
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// traceCycles is how many passes over its inputs an in-process traced
// phase makes; a fixed count makes its work counts repeat exactly.
var traceCycles = map[string]int{cold: 2, large: 1, optimize: 2}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// instance is a set-up workload.
type instance interface {
	measure(dur time.Duration, allocs bool) *loopStats
	errors() []error
	close()
}

func setup(cfg *config) (instance, error) {
	switch cfg.workload {
	case cold:
		in, err := coldInputs(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		return newAnalyzeWorkload(in, cfg.seed), nil
	case large:
		return newAnalyzeWorkload(largeInputs(cfg.seed), cfg.seed), nil
	case optimize:
		in, err := kernelInputs(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		return newOptimizeWorkload(in, cfg.seed), nil
	case serveWL:
		return newServeWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)", cfg.workload, cold, large, optimize, serveWL)
}

func (w *analyzeWorkload) close()  {}
func (w *optimizeWorkload) close() {}

func main() {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer measurement")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&cfg.bivd, "bivd", ".bench_build/bivd", "bivd binary")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res) // plain data always marshals
	fmt.Println(string(out))
}

func run(cfg *config) (*result, error) {
	var w instance
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if a, ok := w.(*analyzeWorkload); ok && cfg.workload == large {
		a.checkSequential()
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricValue{}}
	var stats []*loopStats
	var info map[string]any
	if !cfg.trace {
		st := w.measure(dur, false)
		stats = append(stats, st)
		if s, ok := w.(*serveWorkload); ok {
			s.verify(st)
		}
		var values map[string]float64
		values, info = endToEndValues(st, median(setups), peakRSS(w))
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	} else {
		var err error
		if stats, info, err = traced(cfg, w, dur/2, res); err != nil {
			return nil, err
		}
	}
	for _, st := range stats {
		res.Attempted += st.ops
		res.Failed += st.failed
	}
	errs := errors.Join(w.errors()...)
	res.Correct = res.Failed == 0 && res.Attempted > 0 && errs == nil
	if errs != nil {
		fmt.Fprintln(os.Stderr, "perfbench: checks failed:", errs)
	}
	info["workload"], info["seed"], info["seconds"], info["trace"] = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	info["num_cpu"], info["gomaxprocs"], info["go_version"] = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	info["callers"] = 1
	if cfg.workload == serveWL {
		info["callers"] = serveConns
	}
	info["setup_s_samples"] = setups
	line, _ := json.Marshal(map[string]any{"info": info}) // plain data always marshals
	fmt.Println(string(line))
	return res, nil
}

// endToEndValues computes the end-to-end metrics of an untraced loop
// from the faster half of its windows, and the sample counts behind
// them.
func endToEndValues(all *loopStats, setupS, rssMB float64) (map[string]float64, map[string]any) {
	st := all.best()
	lat := st.latencies()
	p50, b50 := percentile(lat, 0.50)
	p90, b90 := percentile(lat, 0.90)
	p99, b99 := percentile(lat, 0.99)
	values := map[string]float64{
		"setup_s":        setupS,
		"throughput_ops": st.throughput(),
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"latency_p99_ms": p99,
		"median_gm_ms":   medianGM(st.byInput()),
		"peak_rss_mb":    rssMB,
	}
	info := map[string]any{
		"ops": all.ops, "failed": all.failed, "windows": len(all.windows), "kept_ops": st.ops,
		"distinct_inputs": len(st.byInput()),
		"samples_beyond":  map[string]int{"p50": b50, "p90": b90, "p99": b99},
	}
	return values, info
}

// peakRSS is the peak resident set of the process doing the work: the
// daemon for serve-cache, this process otherwise.
func peakRSS(w instance) float64 {
	if s, ok := w.(*serveWorkload); ok {
		return s.d.peakRSSMB()
	}
	return vmHWM("/proc/self/status")
}

// vmHWM reads a /proc status file's VmHWM line, in MB.
func vmHWM(path string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// traced runs the per-layer measurement: an untraced phase of dur, for
// the runtime and stage metrics and the tracing overhead, then the
// workload's traced phase. It fills res.Metrics with every per-layer
// metric, prints them beside the end-to-end metric each should move,
// and writes the spans.
func traced(cfg *config, w instance, dur time.Duration, res *result) ([]*loopStats, map[string]any, error) {
	untraced := w.measure(dur, true)
	t := newTracer()
	v := map[string]float64{}
	var tr *loopStats
	switch w := w.(type) {
	case *analyzeWorkload:
		tr = w.trace(t, traceCycles[cfg.workload], v)
		v["analyze_ms"] = medianGM(untraced.byInput())
	case *optimizeWorkload:
		tr = w.trace(t, traceCycles[cfg.workload], v)
		v["optimize_ms"] = medianGM(untraced.stages["optimize"])
		v["run_seq_ms"] = medianGM(untraced.stages["interp.ssa"])
		v["run_chunked_ms"] = medianGM(untraced.stages["interp.chunked"])
	case *serveWorkload:
		var err error
		if tr, err = w.trace(t, cfg.work, v); err != nil {
			return nil, nil, err
		}
		w.verify(untraced, tr)
	}
	t.selfTimes()
	self, count := t.selfMS()
	ops := float64(tr.ops)
	perOp := func(x float64) float64 { return ratio(x, ops) }
	for _, p := range []string{"parse", "cfgbuild", "ssa", "loops", "sccp", "iv", "depend"} {
		v[p+".ms"] = perOp(self[p])
	}
	for _, p := range []string{"parse", "iv", "depend"} {
		v[p+".allocs"] = perOp(float64(t.allocs[p]))
	}
	for k, x := range t.counts {
		if k != "depend.independent" {
			v[k] = perOp(x)
		}
	}
	v["depend.independent_ratio"] = ratio(t.counts["depend.independent"], t.counts["depend.pairs"])
	v["engine.overhead_ms"] = perOp(self["analyze"])
	for _, p := range []string{"normalize", "peel", "interchange", "distribute", "strength", "ivsub", "dce", "parmark"} {
		v["xform."+p+".ms"] = perOp(self["xform."+p])
	}
	v["interp.ssa_ms"] = perOp(self["interp.ssa"])
	v["interp.ast_ms"] = perOp(self["interp.ast"])
	v["interp.chunked_ms"] = perOp(self["interp.chunked"])
	v["interp.chunked_speedup"] = ratio(self["interp.ast"], self["interp.chunked"])
	if n := count["codec.hash"]; n > 0 {
		v["codec.hash_ms"] = self["codec.hash"] / float64(n)
	}
	if n := count["serve.request"]; n > 0 {
		v["serve.handler_ms"] = ratio(self["serve.handler"], float64(count["serve.handler"]))
		v["serve.http_ms"] = self["serve.request"] / float64(n)
	}
	if _, ok := w.(*serveWorkload); !ok {
		v["gc.cpu_ratio"] = ratio(untraced.gcCPU, untraced.totalCPU)
		v["alloc.bytes_per_op"] = ratio(float64(untraced.allocBytes), float64(untraced.ops))
		v["alloc.objects_per_op"] = ratio(float64(untraced.allocObjects), float64(untraced.ops))
	}
	v["trace.overhead_ratio"] = ratio(tr.throughput(), untraced.throughput())

	fmt.Printf("%-26s %14s %-6s  %s\n", "per-layer metric", "value", "unit", "should move")
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{v[m.name], m.unit}
		note := ""
		if v[m.name] == 0 {
			note = "  (zero on this workload)"
		}
		fmt.Printf("%-26s %14.6g %-6s  %s on %s%s\n", m.name, v[m.name], m.unit, m.moves, m.on, note)
	}

	spans := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := t.write(spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	info := map[string]any{
		"untraced_ops": untraced.ops, "traced_ops": tr.ops, "spans": len(t.spans), "span_file": spans,
	}
	return []*loopStats{untraced, tr}, info, nil
}
