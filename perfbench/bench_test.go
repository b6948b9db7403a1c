package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// bivdBin is built once for the tests that drive serve-cache.
var bivdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	bivdBin = filepath.Join(dir, "bivd")
	if out, err := exec.Command("go", "build", "-o", bivdBin, "beyondiv/cmd/bivd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build bivd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// workloadInputs returns every generated source of a workload for a
// seed, including serve-cache's first requests.
func workloadInputs(t *testing.T, workload string, seed int64) []string {
	t.Helper()
	var in []input
	var err error
	switch workload {
	case cold:
		in, err = coldInputs("..", seed)
	case large:
		in = largeInputs(seed)
	case optimize:
		in, err = kernelInputs("..", seed)
	case serveWL:
		var g *serveInputs
		if g, err = newServeInputs("..", seed); err != nil {
			break
		}
		in = g.hot
		for i := 0; i < 200; i++ {
			in = append(in, input{src: g.request(i).src})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, x := range in {
		out = append(out, x.src)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{cold, large, optimize, serveWL} {
		if a, b := workloadInputs(t, w, 7), workloadInputs(t, w, 7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
	}
}

func TestOtherSeedOtherPrograms(t *testing.T) {
	g1, err := newServeInputs("..", 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newServeInputs("..", 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		r1, r2 := g1.request(i), g2.request(i)
		if r1.class != r2.class || (r1.class != classFresh && r1.class != classEdited) {
			continue
		}
		seen[r1.class] = true
		if r1.src == r2.src {
			t.Errorf("request %d (class %d): seeds 1 and 2 generated the same program", i, r1.class)
		}
	}
	if !seen[classFresh] || !seen[classEdited] {
		t.Fatalf("no fresh or no edited request among the first 400: %v", seen)
	}
	for _, w := range []string{cold, large, optimize} {
		if a, b := workloadInputs(t, w, 1), workloadInputs(t, w, 2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w)
		}
	}
}

func TestRenameKeepsArraysLabelsKeywords(t *testing.T) {
	got := renameScalars("// c1 x\nL1: for i = 1 to n by 2 {\n    a [i] = x + b[i]\n}\n", "zq")
	want := "// c1 x\nL1: for zqi = 1 to zqn by 2 {\n    a [zqi] = zqx + b[zqi]\n}\n"
	if got != want {
		t.Errorf("renameScalars:\n got %q\nwant %q", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{cold, large, optimize, serveWL}; !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	type def struct{ name, unit, better string }
	var gotE2E, wantE2E, gotLayer, wantLayer []def
	for _, m := range b.EndToEnd {
		gotE2E = append(gotE2E, def{m.Name, m.Unit, m.Better})
	}
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, def{m.name, m.unit, m.better})
	}
	for _, m := range b.PerLayer {
		gotLayer = append(gotLayer, def{m.Name, m.Unit, m.Better})
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, def{m.name, m.unit, m.better})
	}
	if !reflect.DeepEqual(gotE2E, wantE2E) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", gotE2E, wantE2E)
	}
	if !reflect.DeepEqual(gotLayer, wantLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", gotLayer, wantLayer)
	}
}

// smoke runs one workload for the shortest time, which still performs
// at least one checked operation.
func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := &config{workload: workload, seed: 3, seconds: 1e-9, trace: trace,
		root: "..", work: t.TempDir(), bivd: bivdBin}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("%s: metric %s printed as %+v, want unit %s", workload, m.name, v, m.unit)
		}
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range []string{cold, large, optimize, serveWL} {
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, false)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
		})
	}
}

// countMetrics are the per-layer metrics that count work; a traced run
// must reproduce them exactly.
var countMetrics = func() []string {
	var out []string
	for _, m := range perLayer {
		if m.unit == "count" && m.name != "parse.allocs" && m.name != "iv.allocs" &&
			m.name != "depend.allocs" && m.name != "alloc.objects_per_op" {
			out = append(out, m.name)
		}
	}
	return out
}()

func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range []string{optimize, serveWL} {
		t.Run(w, func(t *testing.T) {
			a, b := smoke(t, w, true), smoke(t, w, true)
			for _, name := range countMetrics {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}
