package beyondiv

// The persistence bridge between the facade and the engine's disk tier:
// buildArtifact is the engine's Config.BuildArtifact hook. It renders
// every cacheable view of a freshly analyzed state into a
// codec.Artifact and encodes it.

import (
	"encoding/json"
	"errors"

	"beyondiv/internal/codec"
	"beyondiv/internal/engine"
)

// artifactOf renders the cacheable subset of a live analyzed state: the
// classification and dependence reports, the dependence provenance, the
// structured report JSON, and one provenance chain per explainable name.
func artifactOf(st *engine.State) (*codec.Artifact, error) {
	p := programOf(st)
	if p.IV == nil {
		return nil, errors.New("beyondiv: state has no live analysis to serialize")
	}
	js, err := json.Marshal(p.IV.ReportData())
	if err != nil {
		return nil, err
	}
	a := &codec.Artifact{
		Classification: p.ClassificationReport(),
		HasDeps:        p.Deps != nil,
		Dependences:    p.DependenceReport(),
		ExplainDeps:    p.ExplainAllDeps(),
		ReportJSON:     string(js),
	}
	for _, key := range p.IV.ExplainKeys() {
		a.Explains = append(a.Explains, codec.ExplainEntry{Name: key, Text: p.IV.ExplainVar(key)})
	}
	return a, nil
}

// buildArtifact serializes st for the disk store.
func buildArtifact(st *engine.State) ([]byte, error) {
	a, err := artifactOf(st)
	if err != nil {
		return nil, err
	}
	return codec.Encode(a), nil
}
