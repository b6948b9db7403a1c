package interp

import (
	"testing"
	"time"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/ir"
	"beyondiv/internal/parse"
	"beyondiv/internal/ssa"
)

func runBoth(t *testing.T, src string, params map[string]int64) (*Result, *Result) {
	t.Helper()
	file, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: params, MaxSteps: 100_000}
	ra, err := RunAST(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := ssa.Build(cfgbuild.Build(parse.MustParse(src)).Func)
	rs, err := RunSSA(info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ra, rs
}

func TestArithmeticSemantics(t *testing.T) {
	src := `
a = 7 / 2
b = 7 / (0 - 2)
c = 5 / 0
d = 2 ** 10
e = 2 ** (0 - 1)
f = 0 ** 0
g = -3 ** 2
`
	ra, rs := runBoth(t, src, nil)
	want := map[string]int64{
		"a": 3, "b": -3, "c": 0, "d": 1024, "e": 0, "f": 1, "g": 9,
	}
	for k, v := range want {
		if ra.Scalars[k] != v {
			t.Errorf("AST %s = %d, want %d", k, ra.Scalars[k], v)
		}
		if rs.Scalars[k] != v {
			t.Errorf("SSA %s = %d, want %d", k, rs.Scalars[k], v)
		}
	}
}

func TestParamsAndArrays(t *testing.T) {
	ra, rs := runBoth(t, "x = n * 2\na[x] = x + 1\ny = a[x]\n", map[string]int64{"n": 21})
	for _, r := range []*Result{ra, rs} {
		if r.Scalars["x"] != 42 || r.Scalars["y"] != 43 {
			t.Errorf("scalars = %v", r.Scalars)
		}
		if len(r.Writes) != 1 || r.Writes[0] != (ArrayWrite{Array: "a", Index: 42, Value: 43}) {
			t.Errorf("writes = %v", r.Writes)
		}
	}
}

func TestDefaultArrayDeterministic(t *testing.T) {
	if DefaultArray("a", 5) != DefaultArray("a", 5) {
		t.Error("DefaultArray must be deterministic")
	}
	// Small range so conditionals take both branches.
	for i := int64(0); i < 100; i++ {
		v := DefaultArray("a", i)
		if v < -3 || v > 3 {
			t.Fatalf("DefaultArray out of range: %d", v)
		}
	}
}

func TestStepLimit(t *testing.T) {
	file := parse.MustParse("loop { i = i + 1 }")
	_, err := RunAST(file, Config{MaxSteps: 1000})
	if err != ErrStepLimit {
		t.Errorf("AST err = %v, want step limit", err)
	}
	info := ssa.Build(cfgbuild.Build(parse.MustParse("loop { i = i + 1 }")).Func)
	_, err = RunSSA(info, Config{MaxSteps: 1000})
	if err != ErrStepLimit {
		t.Errorf("SSA err = %v, want step limit", err)
	}
}

func TestExitSemantics(t *testing.T) {
	src := `
i = 0
loop {
    i = i + 1
    if i >= 3 { exit }
}
j = 1
exit
j = 2
`
	ra, rs := runBoth(t, src, nil)
	for _, r := range []*Result{ra, rs} {
		if r.Scalars["i"] != 3 || r.Scalars["j"] != 1 {
			t.Errorf("scalars = %v", r.Scalars)
		}
	}
}

func TestForLoopEdgeCases(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"c = 0\nfor i = 1 to 0 { c = c + 1 }", 0},
		{"c = 0\nfor i = 1 to 1 { c = c + 1 }", 1},
		{"c = 0\nfor i = 5 to 1 by -1 { c = c + 1 }", 5},
		{"c = 0\nfor i = 1 to 10 by 4 { c = c + 1 }", 3},
		// bound re-evaluated each iteration
		{"n = 4\nc = 0\nfor i = 1 to n { n = n - 1\nc = c + 1 }", 2},
	}
	for _, c := range cases {
		ra, rs := runBoth(t, c.src, nil)
		if ra.Scalars["c"] != c.want {
			t.Errorf("AST %q: c = %d, want %d", c.src, ra.Scalars["c"], c.want)
		}
		if rs.Scalars["c"] != c.want {
			t.Errorf("SSA %q: c = %d, want %d", c.src, rs.Scalars["c"], c.want)
		}
	}
}

func TestHooksFire(t *testing.T) {
	info := ssa.Build(cfgbuild.Build(parse.MustParse("s = 0\nfor i = 1 to 3 { s = s + i }")).Func)
	blocks, evals := 0, 0
	_, err := RunSSAHooked(info, Config{}, Hooks{
		OnBlock: func(b *ir.Block) { blocks++ },
		OnEval:  func(v *ir.Value, val int64) { evals++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks == 0 || evals == 0 {
		t.Errorf("hooks did not fire: blocks=%d evals=%d", blocks, evals)
	}
}

func TestCustomArrayBase(t *testing.T) {
	file := parse.MustParse("x = a[7]\n")
	r, err := RunAST(file, Config{Arrays: func(name string, idx int64) int64 { return idx * 10 }})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalars["x"] != 70 {
		t.Errorf("x = %d, want 70", r.Scalars["x"])
	}
}

func BenchmarkRunSSA(b *testing.B) {
	info := ssa.Build(cfgbuild.Build(parse.MustParse(`
s = 0
for i = 1 to 1000 {
    s = s + i
    a[i] = s
}
`)).Func)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSSA(info, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSSAStepLimitEmptyLoop: an empty block that jumps to itself has no
// values to charge, so the budget must also be charged per block entry
// or `loop {}` never returns.
func TestSSAStepLimitEmptyLoop(t *testing.T) {
	info := ssa.Build(cfgbuild.Build(parse.MustParse("loop {}\n")).Func)
	done := make(chan error, 1)
	go func() {
		_, err := RunSSA(info, Config{MaxSteps: 1000})
		done <- err
	}()
	select {
	case err := <-done:
		if err != ErrStepLimit {
			t.Fatalf("RunSSA(loop {}) = %v, want ErrStepLimit", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("RunSSA(loop {}) did not return")
	}
}
