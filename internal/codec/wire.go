package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format. An artifact blob is an envelope: the magic "BIVC", a
// little-endian uint16 schema version, the body, then the first 8
// bytes of a SHA-256 over everything before as a self-check. Any
// envelope violation — wrong magic, unknown version, checksum mismatch,
// truncation, trailing bytes — decodes to ErrCorrupt and the caller
// deletes the entry and re-analyzes; it can never surface a wrong
// answer.
const (
	// Version is the artifact schema version. Bump it whenever the body
	// layout, the structural hash, or the meaning of any stored text
	// changes; old entries then read as corrupt and are re-analyzed.
	Version = 2

	magicArtifact = "BIVC"
	checksumLen   = 8

	flagHasDeps = 1 << 0
)

// ErrCorrupt reports an undecodable blob: truncated, bit-rotted, or
// written by a different schema version. The store entry is garbage.
var ErrCorrupt = errors.New("codec: corrupt or incompatible-version blob")

// ---- encoding ----

type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) uvarint(v int) { e.b = binary.AppendUvarint(e.b, uint64(v)) }
func (e *enc) str(s string)  { e.uvarint(len(s)); e.b = append(e.b, s...) }
func (e *enc) raw(p []byte)  { e.b = append(e.b, p...) }

func (e *enc) seal() []byte {
	sum := sha256.Sum256(e.b)
	return append(e.b, sum[:checksumLen]...)
}

// Encode serializes an artifact: its flags, its four report texts,
// then its explain entries in the order given.
func Encode(a *Artifact) []byte {
	e := &enc{}
	e.raw([]byte(magicArtifact))
	e.u16(Version)
	var flags byte
	if a.HasDeps {
		flags |= flagHasDeps
	}
	e.u8(flags)
	e.str(a.Classification)
	e.str(a.Dependences)
	e.str(a.ExplainDeps)
	e.str(a.ReportJSON)
	e.uvarint(len(a.Explains))
	for _, ex := range a.Explains {
		e.str(ex.Name)
		e.str(ex.Text)
	}
	return e.seal()
}

// ---- decoding ----

type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() { d.bad = true }

func (d *dec) u8() byte {
	if d.bad || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.bad || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) uvarint() int {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || v > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	d.off += n
	return int(v)
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.bad || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// Decode reconstructs an artifact from an Encode blob; a damaged or
// other-version blob returns ErrCorrupt.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < len(magicArtifact)+2+checksumLen {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	want := sha256.Sum256(body)
	if string(sum) != string(want[:checksumLen]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if string(body[:len(magicArtifact)]) != magicArtifact {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	d := &dec{b: body, off: len(magicArtifact)}
	if v := d.u16(); v != Version {
		return nil, fmt.Errorf("%w: schema version %d, want %d", ErrCorrupt, v, Version)
	}
	flags := d.u8()
	a := &Artifact{
		HasDeps:        flags&flagHasDeps != 0,
		Classification: d.str(),
		Dependences:    d.str(),
		ExplainDeps:    d.str(),
		ReportJSON:     d.str(),
	}
	n := d.uvarint()
	if d.bad {
		return nil, fmt.Errorf("%w: malformed body", ErrCorrupt)
	}
	a.Explains = make([]ExplainEntry, 0, n)
	for i := 0; i < n; i++ {
		a.Explains = append(a.Explains, ExplainEntry{Name: d.str(), Text: d.str()})
	}
	if d.bad {
		return nil, fmt.Errorf("%w: malformed body", ErrCorrupt)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	sortExplains(a.Explains)
	return a, nil
}
