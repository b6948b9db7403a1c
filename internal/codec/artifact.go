package codec

import "sort"

// Artifact is the cacheable subset of an analysis run: every
// deterministic text the facade can serve without live SSA — the
// classification and dependence reports, the structured per-loop report
// JSON, and the per-variable provenance chains. It deliberately excludes
// the object graphs (SSA, CFG, loop forest): those are cheap to rebuild
// and impossible to version stably, while the rendered results are the
// contract the rest of the system consumes.
type Artifact struct {
	Classification string // ClassificationReport text
	HasDeps        bool   // dependence pass ran (Dependences/ExplainDeps meaningful)
	Dependences    string // DependenceReport text
	ExplainDeps    string // ExplainAllDeps text
	ReportJSON     string // json.Marshal of the []iv.LoopReport slice
	Explains       []ExplainEntry
}

// ExplainEntry is one provenance lookup: Name is any key ExplainVar
// answers non-trivially (an SSA value name, its digit-stripped base, or
// the source variable), Text the full chain it renders.
type ExplainEntry struct {
	Name string
	Text string
}

// sortExplains orders entries for the binary-searched Explain lookup;
// Decode applies it, so Encode accepts entries in any order.
func sortExplains(es []ExplainEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
}

// Explain returns the provenance text stored under name. The boolean is
// false when the name matched nothing at analysis time — mirroring
// ExplainVar's empty answer for unknown variables.
func (a *Artifact) Explain(name string) (string, bool) {
	i := sort.Search(len(a.Explains), func(i int) bool { return a.Explains[i].Name >= name })
	if i < len(a.Explains) && a.Explains[i].Name == name {
		return a.Explains[i].Text, true
	}
	return "", false
}
