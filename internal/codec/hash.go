// Package codec gives analysis results a durable form: a stable,
// versioned binary encoding of the cacheable subset of an engine run
// (the rendered classification and dependence reports, the structured
// per-loop report data, and the per-variable provenance chains),
// together with the canonical structural hash that content-addresses
// them on disk.
//
// StructuralHash hashes the parsed AST, not the source text, so
// whitespace and comment edits produce the same key and share one
// entry. Identifiers are hashed literally: an α-renamed copy of a
// program is a different program to the store. Every stored text names
// the program's variables (SSA names, IV tuples, dependence equations),
// so a renamed copy renders differently and could only be served from
// another program's entry by rewriting those texts; that rewriting cost
// a second analysis on every persisted miss and paid back rarely.
//
// Decoding validates a schema version and a checksum: any mismatch —
// truncation, corruption, a codec from another release — surfaces as
// ErrCorrupt, which the engine answers with re-analysis, never a wrong
// result.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"beyondiv/internal/ast"
)

// structHasher accumulates the canonical structure stream: node tags,
// operators, literal values and names, each in a self-delimiting form.
type structHasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

// StructuralHash content-addresses the program's shape: a SHA-256 over
// the AST's node tags, operators, literals, identifiers and loop labels.
// Formatting and comments never reach the hash. Names are hashed
// literally and length-prefixed, so programs that differ only in a
// variable or label name hash differently — as their reports do.
func StructuralHash(f *ast.File) [32]byte {
	s := &structHasher{h: sha256.New()}
	s.varint(int64(len(f.Stmts)))
	for _, st := range f.Stmts {
		s.stmt(st)
	}
	var sum [32]byte
	s.h.Sum(sum[:0])
	return sum
}

// Structure-stream tags. These are part of the on-disk key derivation:
// renumbering them orphans every existing store entry (harmlessly — the
// entries just stop being found), so new node kinds must append.
const (
	tagAssign = iota + 1
	tagFor
	tagLoop
	tagWhile
	tagIf
	tagExit
	tagIdent
	tagNum
	tagBin
	tagUnary
	tagIndex
	tagNoLabel
	tagLabel
	tagNoStep
	tagStep
	tagNoElse
	tagElse
)

func (s *structHasher) tag(t byte) { s.h.Write([]byte{t}) }

func (s *structHasher) varint(v int64) {
	n := binary.PutVarint(s.buf[:], v)
	s.h.Write(s.buf[:n])
}

// str hashes a name length-prefixed, so adjacent names cannot run
// together.
func (s *structHasher) str(n string) {
	s.varint(int64(len(n)))
	s.h.Write([]byte(n))
}

func (s *structHasher) label(l string) {
	if l == "" {
		s.tag(tagNoLabel)
		return
	}
	s.tag(tagLabel)
	s.str(l)
}

func (s *structHasher) stmt(st ast.Stmt) {
	switch v := st.(type) {
	case *ast.Assign:
		s.tag(tagAssign)
		s.expr(v.LHS)
		s.expr(v.RHS)
	case *ast.For:
		s.tag(tagFor)
		s.label(v.Label)
		s.str(v.Var.Name)
		s.expr(v.Lo)
		s.expr(v.Hi)
		if v.Step == nil {
			s.tag(tagNoStep)
		} else {
			s.tag(tagStep)
			s.expr(v.Step)
		}
		s.block(v.Body)
	case *ast.Loop:
		s.tag(tagLoop)
		s.label(v.Label)
		s.block(v.Body)
	case *ast.While:
		s.tag(tagWhile)
		s.label(v.Label)
		s.expr(v.Cond)
		s.block(v.Body)
	case *ast.If:
		s.tag(tagIf)
		s.expr(v.Cond)
		s.block(v.Then)
		if v.Else == nil {
			s.tag(tagNoElse)
		} else {
			s.tag(tagElse)
			s.block(v.Else)
		}
	case *ast.Exit:
		s.tag(tagExit)
	case *ast.Block:
		s.block(v)
	}
}

func (s *structHasher) block(b *ast.Block) {
	s.varint(int64(len(b.Stmts)))
	for _, st := range b.Stmts {
		s.stmt(st)
	}
}

func (s *structHasher) expr(e ast.Expr) {
	switch v := e.(type) {
	case *ast.Ident:
		s.tag(tagIdent)
		s.str(v.Name)
	case *ast.Num:
		s.tag(tagNum)
		s.varint(v.Value)
	case *ast.Bin:
		s.tag(tagBin)
		s.varint(int64(v.Op))
		s.expr(v.X)
		s.expr(v.Y)
	case *ast.Unary:
		s.tag(tagUnary)
		s.varint(int64(v.Op))
		s.expr(v.X)
	case *ast.Index:
		s.tag(tagIndex)
		s.str(v.Name)
		s.expr(v.Sub)
	}
}
