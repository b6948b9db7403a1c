// Incremental-analysis benchmark: what the persistent store buys across
// process restarts. Three scenarios over the same generated corpus —
// cold (empty store, every program analyzed and persisted), edit (a new
// process re-opens the store after one file changed: one re-analysis,
// the rest served from disk), warm (a new process, nothing changed:
// each program costs its parse and one blob read, no analysis pass).
// `make bench-incremental` writes the numbers to BENCH_incremental.json.
package beyondiv

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/progen"
)

// incrementalCorpusSize is N in the headline claim: editing 1 of N
// files should cost about 1/N of a cold start.
const incrementalCorpusSize = 24

func incrementalCorpus() []string {
	srcs := make([]string, incrementalCorpusSize)
	for i := range srcs {
		srcs[i] = progen.DepWorkload(int64(i + 1))
	}
	return srcs
}

// runCorpus analyzes every source sequentially on one analyzer built
// from opts, returning elapsed wall time and the registry the run
// recorded into.
func runCorpus(t testing.TB, srcs []string, opts Options) (time.Duration, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	opts.Metrics = reg
	an := NewAnalyzer(opts)
	start := time.Now()
	for _, src := range srcs {
		if _, err := an.Analyze(src); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start), reg
}

// TestIncrementalBenchArtifact measures the three scenarios and writes
// the file named by BENCH_JSON (skipped when unset). Each scenario runs
// in a fresh analyzer over the same store directory — a process restart
// in miniature; the cold scenario gets a fresh directory per rep. The
// structural claims are asserted, not just reported: the edit round
// re-analyzes exactly one program, the warm round none.
func TestIncrementalBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to write the benchmark artifact")
	}
	srcs := incrementalCorpus()
	n := len(srcs)
	reps := 3

	cold := time.Duration(1<<62 - 1)
	var dir string
	for r := 0; r < reps; r++ {
		// Fresh store every rep: cold means cold. The last rep's
		// directory stays warm for the scenarios below.
		dir = t.TempDir()
		d, reg := runCorpus(t, srcs, Options{CacheDir: dir})
		if got := reg.Counter("engine.store.write"); got != int64(n) {
			t.Fatalf("cold rep wrote %d entries, want %d", got, n)
		}
		if d < cold {
			cold = d
		}
	}

	// Edit: one program changed (a fresh literal each rep keeps every
	// edit a genuine store miss), analyzed by a new process.
	edit := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		edited := append([]string(nil), srcs...)
		edited[0] = fmt.Sprintf("%s\nzedit = %d\n", srcs[0], r+1)
		d, reg := runCorpus(t, edited, Options{CacheDir: dir})
		if got := reg.Counter("engine.store.hit"); got != int64(n-1) {
			t.Fatalf("edit rep hit %d entries, want %d", got, n-1)
		}
		if got := reg.Counter("engine.store.write"); got != 1 {
			t.Fatalf("edit rep wrote %d entries, want 1", got)
		}
		if d < edit {
			edit = d
		}
	}

	// Warm: a new process, nothing changed — every answer is a
	// structural hit decoded off disk after the parse, with no other
	// pass run and nothing written.
	warm := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		d, reg := runCorpus(t, srcs, Options{CacheDir: dir})
		if got := reg.Counter("engine.store.hit.struct"); got != int64(n) {
			t.Fatalf("warm rep had %d structural hits, want %d", got, n)
		}
		if got := reg.Counter("engine.store.miss"); got != 0 {
			t.Fatalf("warm rep missed %d times, want 0", got)
		}
		if got := reg.Counter("engine.store.write"); got != 0 {
			t.Fatalf("warm rep wrote %d entries, want 0", got)
		}
		if d < warm {
			warm = d
		}
	}

	editVsCold := ratio(int64(edit), int64(cold))
	warmSpeedup := ratio(int64(cold), int64(warm))
	report := map[string]any{
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"num_cpu":              runtime.NumCPU(),
		"corpus_size":          n,
		"cold_ns":              cold.Nanoseconds(),
		"cold_ns_per_program":  cold.Nanoseconds() / int64(n),
		"edit_one_of_n_ns":     edit.Nanoseconds(),
		"warm_ns":              warm.Nanoseconds(),
		"warm_ns_per_program":  warm.Nanoseconds() / int64(n),
		"edit_vs_cold":         editVsCold,
		"ideal_edit_vs_cold":   1.0 / float64(n),
		"warm_speedup_vs_cold": warmSpeedup,
	}
	writeBenchJSON(t, path, report)
	t.Logf("cold %v, 1-of-%d edit %v (%.1f%% of cold, ideal %.1f%%), warm restart %v (%.0fx faster than cold)",
		cold, n, edit, 100*editVsCold, 100.0/float64(n), warm, warmSpeedup)

	// The headline claims, with slack for timing noise: an edit costs
	// on the order of 1/N of a cold start (the one re-analysis plus N-1
	// disk reads), and a warm restart is at least 10x cold.
	if editVsCold > 6.0/float64(n) {
		t.Errorf("1-of-%d edit cost %.1f%% of cold; want on the order of %.1f%%",
			n, 100*editVsCold, 100.0/float64(n))
	}
	if warmSpeedup < 10 {
		t.Errorf("warm restart only %.1fx faster than cold; want >= 10x", warmSpeedup)
	}
}
