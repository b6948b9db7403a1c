package beyondiv

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
)

// hardeningSrc exercises every pipeline phase: a loop nest, an
// induction variable, and an array recurrence so iv and depend both
// have real work.
const hardeningSrc = `
j = 0
L1: for i = 1 to 10 {
    j = j + i
    a[j] = a[j - 1]
}
`

// allPhases is every phase name the facade can attribute a failure to,
// in pipeline order. "scan" and "parse" are fired inside the parse
// phase; the rest are fired by the facade's per-phase wrapper.
var allPhases = []string{"scan", "parse", "cfgbuild", "ssa", "loops", "sccp", "iv", "depend"}

// assertFlushed checks that containment left the telemetry span tree
// well-formed: the "analyze" root span was closed (a span opened now
// becomes a new root, not a child of a leaked open span).
func assertFlushed(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	roots := rec.Spans()
	if len(roots) == 0 || roots[0].Name != "analyze" {
		t.Fatalf("analyze span missing from telemetry: %v", roots)
	}
	probe := rec.Phase("probe")
	probe.End()
	roots = rec.Spans()
	if roots[len(roots)-1].Name != "probe" {
		t.Errorf("span tree not flushed: a span was left open across containment")
	}
}

// TestFaultInjectionPanics proves that an internal panic in any phase
// is contained: AnalyzeWith returns a *Error naming the phase and
// carrying a stack trace, and telemetry recorded up to the fault
// survives.
func TestFaultInjectionPanics(t *testing.T) {
	for _, phase := range allPhases {
		t.Run(phase, func(t *testing.T) {
			rec := obs.New()
			p, err := AnalyzeWith(hardeningSrc, Options{
				Obs:    rec,
				Limits: guard.Limits{Inject: guard.PanicIn(phase)},
			})
			if p != nil {
				t.Fatalf("got a program despite injected panic in %s", phase)
			}
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("error is not *beyondiv.Error: %T %v", err, err)
			}
			if e.Phase != phase {
				t.Errorf("Phase = %q, want %q", e.Phase, phase)
			}
			if len(e.Stack) == 0 {
				t.Errorf("contained panic carries no stack trace")
			}
			var f *guard.Fault
			if !errors.As(err, &f) || f.Phase != phase {
				t.Errorf("cause is not the injected *guard.Fault: %v", err)
			}
			if !strings.Contains(err.Error(), phase) {
				t.Errorf("rendered error %q does not name the phase", err)
			}
			assertFlushed(t, rec)
		})
	}
}

// TestFaultInjectionLimits proves that a resource-ceiling hit in any
// phase fails closed: a *Error wrapping the *guard.LimitError, with
// phase attribution taken from the limit itself.
func TestFaultInjectionLimits(t *testing.T) {
	for _, phase := range allPhases {
		t.Run(phase, func(t *testing.T) {
			rec := obs.New()
			_, err := AnalyzeWith(hardeningSrc, Options{
				Obs:    rec,
				Limits: guard.Limits{Inject: guard.LimitIn(phase)},
			})
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("error is not *beyondiv.Error: %T %v", err, err)
			}
			if e.Phase != phase {
				t.Errorf("Phase = %q, want %q", e.Phase, phase)
			}
			var le *guard.LimitError
			if !errors.As(err, &le) || le.Phase != phase {
				t.Errorf("cause is not the injected *guard.LimitError: %v", err)
			}
			assertFlushed(t, rec)
		})
	}
}

// TestFaultInjectionLatePhasesSkipped checks a fault armed for a phase
// that never runs (depend under SkipDependences) does not fire.
func TestFaultInjectionLatePhasesSkipped(t *testing.T) {
	_, err := AnalyzeWith(hardeningSrc, Options{
		SkipDependences: true,
		Limits:          guard.Limits{Inject: guard.PanicIn("depend")},
	})
	if err != nil {
		t.Fatalf("depend fault fired despite SkipDependences: %v", err)
	}
}

// TestLimitSourceBytes: oversized input is rejected before scanning.
func TestLimitSourceBytes(t *testing.T) {
	_, err := AnalyzeWith(hardeningSrc, Options{
		Limits: guard.Limits{MaxSourceBytes: 8},
	})
	var e *Error
	if !errors.As(err, &e) || e.Phase != "scan" {
		t.Fatalf("want scan-phase error, got %v", err)
	}
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "source bytes" {
		t.Fatalf("want source-bytes LimitError, got %v", err)
	}
}

// TestLimitNestDepth: deep statement nesting fails with a parse-phase
// limit error instead of exhausting the goroutine stack.
func TestLimitNestDepth(t *testing.T) {
	depth := 300
	src := strings.Repeat("if x < 1 { ", depth) + "y = 1" + strings.Repeat(" }", depth)
	_, err := AnalyzeWith(src, Options{
		Limits: guard.Limits{MaxNestDepth: 16},
	})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "nesting depth" {
		t.Fatalf("want nesting-depth LimitError, got %v", err)
	}
	var e *Error
	if !errors.As(err, &e) || e.Phase != "parse" {
		t.Fatalf("want parse-phase error, got %v", err)
	}
}

// TestLimitSSAValues: the IR-size ceiling trips during construction.
func TestLimitSSAValues(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		sb.WriteString("x = x + 1\n")
	}
	_, err := AnalyzeWith(sb.String(), Options{
		Limits: guard.Limits{MaxSSAValues: 16},
	})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "IR values" {
		t.Fatalf("want IR-values LimitError, got %v", err)
	}
}

// TestLimitLoopDepth: a nest deeper than the ceiling is rejected in
// the iv phase.
func TestLimitLoopDepth(t *testing.T) {
	src := `
for i = 1 to 3 {
    for j = 1 to 3 {
        for k = 1 to 3 {
            a[k] = a[k] + 1
        }
    }
}
`
	_, err := AnalyzeWith(src, Options{
		Limits: guard.Limits{MaxLoopDepth: 2},
	})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "loop depth" {
		t.Fatalf("want loop-depth LimitError, got %v", err)
	}
	var e *Error
	if !errors.As(err, &e) || e.Phase != "iv" {
		t.Fatalf("want iv-phase error, got %v", err)
	}
}

// TestLimitPhaseSteps: a tiny work budget stops the first metered
// phase with a structured error rather than running long.
func TestLimitPhaseSteps(t *testing.T) {
	_, err := AnalyzeWith(hardeningSrc, Options{
		Limits: guard.Limits{MaxPhaseSteps: 2},
	})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "phase steps" {
		t.Fatalf("want phase-steps LimitError, got %v", err)
	}
}

// TestLimitUnlimited: guard.Unlimited disables a check explicitly.
func TestLimitUnlimited(t *testing.T) {
	p, err := AnalyzeWith(hardeningSrc, Options{
		Limits: guard.Limits{MaxSourceBytes: guard.Unlimited},
	})
	if err != nil || p == nil {
		t.Fatalf("Unlimited source bytes rejected valid input: %v", err)
	}
}

// TestErrorPosition: syntax errors surface the source position through
// the structured error.
func TestErrorPosition(t *testing.T) {
	_, err := AnalyzeWith("x = 1 +\n", Options{})
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("syntax error is not *beyondiv.Error: %T %v", err, err)
	}
	if e.Phase != "parse" && e.Phase != "scan" {
		t.Errorf("Phase = %q, want scan or parse", e.Phase)
	}
	if e.Pos.IsZero() {
		t.Errorf("input diagnostic lost its position: %v", err)
	}
}

// TestOptimizeEmptyLoopReturns: translation validation runs the SSA
// interpreter on the original program, so an empty infinite loop after
// a loop a pass rewrites must exhaust the step budget and return —
// both with and without a caller deadline.
func TestOptimizeEmptyLoopReturns(t *testing.T) {
	const src = "c1: for i = 1 to 9 by 2 { c2 = 2 + 1 }\nloop {}"
	run := func(name string, f func() error) {
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not return", name)
		}
	}
	run("Optimize", func() error {
		_, err := Optimize(src)
		return err
	})
	run("OptimizeContext", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err := NewAnalyzer(Options{}).OptimizeContext(ctx, src)
		return err
	})
}
