package iv

import (
	"fmt"
	"slices"
	"strings"

	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
)

// Rule identifies the classification rule that produced a
// Classification, for provenance reporting ("why was j linear?"). The
// zero value means the producing site did not annotate; Explain then
// derives a rule from the Kind alone.
type Rule uint8

// Rules, named after the paper sections that define them.
const (
	RuleNone Rule = iota
	// RuleInvariantLeaf: the value is defined outside the loop.
	RuleInvariantLeaf
	// RuleInvariantConst: constant propagation (Wegman–Zadeck) proved a
	// single value.
	RuleInvariantConst
	// RuleInvariantLoad: §5.1's invariant-address load from an array the
	// loop never stores to.
	RuleInvariantLoad
	// RuleAlgebra: §5.1's algebra of types and operators over already
	// classified operands.
	RuleAlgebra
	// RuleJoinMerge: a non-header φ whose incoming classifications agree.
	RuleJoinMerge
	// RuleWrapAround: §4.1's wrap-around rule at a loop-header φ whose
	// carried value is classified outside the φ's own cycle.
	RuleWrapAround
	// RuleLinearFamily: §3.1's equal-offset linear family (Figure 3).
	RuleLinearFamily
	// RuleLinearCumulative: the §4.3 cumulative effect degenerating to
	// X' = X + invariant.
	RuleLinearCumulative
	// RulePeriodicRing: §4.2's rotation ring of header φs and copies.
	RulePeriodicRing
	// RuleFlipFlop: §4.2's flip-flop recurrence X' = c − X.
	RuleFlipFlop
	// RulePolynomial: §4.3's cumulative effect X' = X + β with β an
	// induction variable.
	RulePolynomial
	// RuleGeometric: §4.3's cumulative effect X' = a·X + β with |a| ≥ 2.
	RuleGeometric
	// RuleMonotonicRange: §4.4's same-signed conditional increments.
	RuleMonotonicRange
	// RuleMonotonicGrowth: §4.4's extension admitting multiplications
	// ("such as 2*i+i, as long as the initial value of i is known").
	RuleMonotonicGrowth
	// RuleExitValue: §5.3's exit-value propagation out of an inner loop.
	RuleExitValue
	// RuleUnclassified: the SCR matched no rule.
	RuleUnclassified
)

var ruleNames = map[Rule]string{
	RuleNone:             "unannotated",
	RuleInvariantLeaf:    "loop-external definition (invariant)",
	RuleInvariantConst:   "constant propagation (Wegman–Zadeck SCCP)",
	RuleInvariantLoad:    "§5.1 invariant load (array never stored in loop)",
	RuleAlgebra:          "§5.1 operator algebra over classified operands",
	RuleJoinMerge:        "join φ with agreeing incoming classifications",
	RuleWrapAround:       "§4.1 wrap-around header φ",
	RuleLinearFamily:     "§3.1 linear induction family (Figure 3, equal offsets)",
	RuleLinearCumulative: "§4.3 cumulative effect, degenerate X' = X + invariant",
	RulePeriodicRing:     "§4.2 periodic rotation ring",
	RuleFlipFlop:         "§4.2 flip-flop X' = c − X (periodic, period 2)",
	RulePolynomial:       "§4.3 polynomial via cumulative effect X' = X + β",
	RuleGeometric:        "§4.3 geometric via cumulative effect X' = a·X + β",
	RuleMonotonicRange:   "§4.4 monotonic (same-signed increments)",
	RuleMonotonicGrowth:  "§4.4 monotonic growth (adds and multiplies, known start)",
	RuleExitValue:        "§5.3 exit value of an inner loop",
	RuleUnclassified:     "no classification rule matched the SCR",
}

// String names the rule in paper terms.
func (r Rule) String() string {
	if s, ok := ruleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// ruleOf returns the classification's recorded rule, falling back to a
// kind-derived rule when the producing site did not annotate.
func ruleOf(c *Classification) Rule {
	if c.Rule != RuleNone {
		return c.Rule
	}
	switch c.Kind {
	case Invariant:
		return RuleInvariantLeaf
	case Linear:
		return RuleLinearFamily
	case Polynomial:
		return RulePolynomial
	case Geometric:
		return RuleGeometric
	case WrapAround:
		return RuleWrapAround
	case Periodic:
		return RulePeriodicRing
	case Monotonic:
		return RuleMonotonicRange
	default:
		return RuleUnclassified
	}
}

// ruleDetail renders the kind-specific provenance line: what the rule
// computed, with enough structure to re-derive the tuple.
func ruleDetail(c *Classification) string {
	switch c.Kind {
	case Invariant:
		if c.Expr != nil {
			return fmt.Sprintf("value is %s on every iteration", c.Expr)
		}
		return "value does not change within the loop (not affine)"
	case Linear:
		return fmt.Sprintf("value(h) = %s + %s·h", c.Init, c.Step)
	case Polynomial:
		if c.Coeffs != nil {
			return fmt.Sprintf("order %d, coefficients solved from %d simulated samples via Vandermonde inversion",
				c.Order, len(c.Coeffs))
		}
		return fmt.Sprintf("order %d, order-only (symbolic initial value blocks the Vandermonde solve)", c.Order)
	case Geometric:
		if c.Coeffs != nil {
			return fmt.Sprintf("base %d, coefficients solved via geometric Vandermonde inversion", c.Base)
		}
		return fmt.Sprintf("base %d, base-only (symbolic initial value blocks the Vandermonde solve)", c.Base)
	case WrapAround:
		return fmt.Sprintf("holds init %s for the first %d iteration(s), then follows the carried classification delayed by %d",
			c.Init, c.Order, c.Order)
	case Periodic:
		if len(c.Initials) == c.Period {
			parts := make([]string, len(c.Initials))
			for i, e := range c.Initials {
				parts[i] = e.String()
			}
			return fmt.Sprintf("period %d, phase %d, ring (%s)", c.Period, c.Phase, strings.Join(parts, ", "))
		}
		return fmt.Sprintf("period %d, phase %d", c.Period, c.Phase)
	case Monotonic:
		dir := "non-decreasing"
		if c.Dir < 0 {
			dir = "non-increasing"
		}
		if c.Strict {
			if c.Dir > 0 {
				dir = "strictly increasing"
			} else {
				dir = "strictly decreasing"
			}
		}
		return fmt.Sprintf("value is %s across iterations", dir)
	default:
		return "operands escape every rule of §3–§5"
	}
}

// scrMembers lists the values of loop l classified into the same family
// as c (same anchoring header φ), sorted by SSA id.
func (a *Analysis) scrMembers(c *Classification) []*ir.Value {
	if c.HeadPhi == nil || c.Loop == nil {
		return nil
	}
	m := a.byLoop[c.Loop]
	var out []*ir.Value
	for v, vc := range m {
		if vc != nil && vc.HeadPhi == c.HeadPhi {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, ir.ByID)
	return out
}

// Explain renders the provenance chain of v's classification in loop l:
// the rule that fired (by paper section), its detail, the SCR members
// the rule consumed, and the feeding classifications, recursively.
func (a *Analysis) Explain(l *loops.Loop, v *ir.Value) string {
	var sb strings.Builder
	c := a.ClassOf(l, v)
	label := "?"
	if l != nil {
		label = l.Label
	}
	fmt.Fprintf(&sb, "%s in loop %s: %s\n", v, label, c)
	a.explainChain(&sb, c, 1)
	return sb.String()
}

func (a *Analysis) explainChain(sb *strings.Builder, c *Classification, depth int) {
	if c == nil || depth > 6 {
		return
	}
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%srule: %s\n", pad, ruleOf(c))
	fmt.Fprintf(sb, "%s      %s\n", pad, ruleDetail(c))
	if members := a.scrMembers(c); len(members) > 0 {
		names := make([]string, len(members))
		for i, m := range members {
			s := m.String()
			if m.Op == ir.OpPhi {
				s = "φ " + s
			}
			names[i] = s
		}
		fmt.Fprintf(sb, "%s      SCR {%s}\n", pad, strings.Join(names, ", "))
	}
	if c.Kind == WrapAround && c.Inner != nil {
		fmt.Fprintf(sb, "%sfed by carried value: %s\n", pad, c.Inner)
		a.explainChain(sb, c.Inner, depth+1)
	}
	if c.Beta != nil {
		fmt.Fprintf(sb, "%sfed by recurrence step β = %s\n", pad, c.Beta)
		a.explainChain(sb, c.Beta, depth+1)
	}
}

// ExplainVar renders the provenance chains for every classified value
// whose SSA name or source variable matches name, across all loops
// (innermost first). An empty result means no such variable exists.
func (a *Analysis) ExplainVar(name string) string {
	var sb strings.Builder
	for _, l := range a.Forest.InnerToOuter() {
		m := a.byLoop[l]
		vals := make([]*ir.Value, 0, len(m))
		for v := range m {
			if a.varMatches(v, name) {
				vals = append(vals, v)
			}
		}
		slices.SortFunc(vals, ir.ByID)
		for _, v := range vals {
			sb.WriteString(a.Explain(l, v))
		}
	}
	return sb.String()
}

// ExplainKeys enumerates every name ExplainVar has an answer for: for
// each classified value (loops innermost first, values by SSA id) its
// SSA name, that name with the version suffix stripped, and the
// renamer's source-variable record — exactly the names varMatches
// accepts, first occurrence only, in a deterministic order.
func (a *Analysis) ExplainKeys() []string {
	var keys []string
	seen := map[string]bool{}
	add := func(k string) {
		if k != "" && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, l := range a.Forest.InnerToOuter() {
		m := a.byLoop[l]
		vals := make([]*ir.Value, 0, len(m))
		for v := range m {
			if v.Name != "" {
				vals = append(vals, v)
			}
		}
		slices.SortFunc(vals, ir.ByID)
		for _, v := range vals {
			add(v.Name)
			add(strings.TrimRight(v.Name, "0123456789"))
			if a.SSA != nil {
				add(a.SSA.VarOf(v))
			}
		}
	}
	return keys
}

// varMatches reports whether v is a version of the named variable: an
// exact SSA-name match ("j2"), the renamer's source-variable record, or
// the SSA name with its version suffix stripped ("j").
func (a *Analysis) varMatches(v *ir.Value, name string) bool {
	if v.Name == "" {
		return false
	}
	if v.Name == name {
		return true
	}
	if a.SSA != nil && a.SSA.VarOf(v) == name {
		return true
	}
	base := strings.TrimRight(v.Name, "0123456789")
	return base == name
}
