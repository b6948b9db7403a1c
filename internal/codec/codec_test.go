package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"beyondiv/internal/parse"
)

const prog = `
s = 0
L1: for i = 1 to n {
    a[i] = a[i] + s
    s = s + 2 * i
}
`

// Same program, reformatted and commented: the structural hash must not
// move.
const progNoisy = `s=0
// running sum
L1: for i = 1 to n { a[i] = a[i] + s; s = s + 2*i }  // body
`

// Same shape, every variable renamed (s->t, i->j, n->m, a->b). Its
// reports name t, j, m and b, so it must not share an entry with prog.
const progRenamed = `
t = 0
L1: for j = 1 to m {
    b[j] = b[j] + t
    t = t + 2 * j
}
`

func TestStructuralHashIgnoresFormatting(t *testing.T) {
	if StructuralHash(parse.MustParse(prog)) != StructuralHash(parse.MustParse(progNoisy)) {
		t.Fatalf("formatting changed the structural hash")
	}
}

func TestStructuralHashAlphaRename(t *testing.T) {
	if StructuralHash(parse.MustParse(prog)) == StructuralHash(parse.MustParse(progRenamed)) {
		t.Fatalf("alpha-renamed programs share a structural hash")
	}
}

func TestStructuralHashDistinguishes(t *testing.T) {
	base := parse.MustParse(prog)
	variants := []string{
		"s = 0\nL1: for i = 1 to n {\n a[i] = a[i] + s\n s = s + 3 * i\n}\n",      // literal 2 -> 3
		"s = 0\nL1: for i = 1 to n {\n a[i] = a[i] - s\n s = s + 2 * i\n}\n",      // + -> -
		"s = 0\nL1: for i = 1 to n {\n a[i] = a[i] + s\n}\n",                      // dropped stmt
		"s = 0\nL1: for i = 1 to n by 1 {\n a[i] = a[i] + s\n s = s + 2 * i\n}\n", // explicit step
		"s = 0\nL1: for i = 1 to n {\n a[s] = a[i] + s\n s = s + 2 * i\n}\n",      // different name use
		"s = 0\nL7: for i = 1 to n {\n a[i] = a[i] + s\n s = s + 2 * i\n}\n",      // relabeled loop
	}
	h0 := StructuralHash(base)
	for _, v := range variants {
		if StructuralHash(parse.MustParse(v)) == h0 {
			t.Errorf("variant hashed identically to base:\n%s", v)
		}
	}
}

// fixture is an artifact with every field set and explain entries
// out of order, the way artifactOf derives them.
func fixture() *Artifact {
	return &Artifact{
		Classification: "loop L (depth 1) trip=n\n  i1 = (1, +1, n)\n",
		HasDeps:        true,
		Dependences:    "no dependences involving i\n",
		ExplainDeps:    "i1 strides by 1 up to n\n",
		ReportJSON:     `[{"values":[{"name":"i1"}]}]`,
		Explains: []ExplainEntry{
			{Name: "i1", Text: "i1: basic IV\n"},
			{Name: "i", Text: "i1: basic IV\n"},
		},
	}
}

func artifactsEqual(a, b *Artifact) bool {
	if a.Classification != b.Classification || a.HasDeps != b.HasDeps ||
		a.Dependences != b.Dependences || a.ExplainDeps != b.ExplainDeps ||
		a.ReportJSON != b.ReportJSON || len(a.Explains) != len(b.Explains) {
		return false
	}
	for i := range a.Explains {
		if a.Explains[i] != b.Explains[i] {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := fixture()
	got, err := Decode(Encode(a))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sortExplains(a.Explains)
	if !artifactsEqual(a, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
	if txt, ok := got.Explain("i1"); !ok || txt != "i1: basic IV\n" {
		t.Fatalf("explain lookup: %q, %v", txt, ok)
	}
	if _, ok := got.Explain("j"); ok {
		t.Fatalf("unknown name resolved")
	}
}

// version1Blob is a well-formed blob in the previous schema, which
// stored a name table and split each text into literal runs and name
// references: magic, version 1, flags, a one-name table ["i"], four
// texts and one explain entry, each a single literal run, then the
// checksum. A store written by an
// older release holds blobs like it; they must read as corrupt so the
// entry is deleted and re-analyzed.
func version1Blob() []byte {
	b := []byte("BIVC")
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = append(b, flagHasDeps)
	lit := func(s string) {
		b = append(b, 1, 0) // one run, literal
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = append(b, 1, 1, 'i') // name table ["i"]
	for _, s := range []string{"report\n", "", "", "[]"} {
		lit(s)
	}
	b = append(b, 1) // one explain entry
	lit("i")
	lit("i1: basic IV\n")
	sum := sha256.Sum256(b)
	return append(b, sum[:checksumLen]...)
}

func TestDecodeCorrupt(t *testing.T) {
	data := Encode(fixture())

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"bitflip", func(b []byte) []byte { b[len(b)/3] ^= 0x40; return b }},
		{"badmagic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
		{"version", func(b []byte) []byte {
			b[4] ^= 0xff // version field; checksum now also mismatches
			return b
		}},
		{"version1", func([]byte) []byte { return version1Blob() }},
	} {
		b := tc.mut(bytes.Clone(data))
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// FuzzArtifactCodec exercises both directions: arbitrary artifacts must
// round-trip exactly through Encode/Decode, and arbitrary bytes must
// decode to an error, never a panic or a fabricated artifact.
func FuzzArtifactCodec(f *testing.F) {
	a := fixture()
	f.Add(a.Classification, a.Dependences, a.ExplainDeps, a.ReportJSON,
		"i", "i1: basic IV\n", true, Encode(a))
	f.Add("", "", "", "", "", "", false, []byte("BIVC junk"))
	f.Fuzz(func(t *testing.T, cls, deps, expl, repJSON, exName, exText string, hasDeps bool, raw []byte) {
		art := &Artifact{
			Classification: cls,
			HasDeps:        hasDeps,
			Dependences:    deps,
			ExplainDeps:    expl,
			ReportJSON:     repJSON,
			Explains:       []ExplainEntry{{Name: exName, Text: exText}},
		}
		got, err := Decode(Encode(art))
		if err != nil {
			t.Fatalf("decode of fresh encode failed: %v", err)
		}
		if !artifactsEqual(art, got) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, art)
		}
		// Arbitrary bytes: must error or produce a valid artifact,
		// never panic.
		if a2, err := Decode(raw); err == nil && a2 == nil {
			t.Fatalf("nil artifact with nil error")
		}
	})
}
