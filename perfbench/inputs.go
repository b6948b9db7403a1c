package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"beyondiv/internal/cliutil"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// input is one generated program. The program under test sees only src
// (and params, for the kernels it executes).
type input struct {
	name   string
	src    string
	expect *paper.Program   // paper corpus entry whose Expect/TripCounts src must meet
	params map[string]int64 // scalar parameters of an executed kernel
	weight int              // visits per cycle of the closed loop (0 means 1)
}

// Cycle weights. A workload of a few disparate inputs has a pooled
// latency distribution made of steps, one per input; a percentile that
// lands on the edge between two steps flips between them from run to
// run. The weights below put p50, p90 and p99 each in the middle of one
// input's samples: of a 50-op cycle, the heaviest input takes 1 op
// (98-100%, so p99 is its median), the next 8 (82-98%, p90 at the
// middle) and the fifth-ranked 10 (40-60%, p50 at the middle). Ranks
// are by op latency on the seed code.

// exampleNames are the programs embedded in examples/*/main.go.
var exampleNames = []string{"packing", "quickstart", "relaxation", "strength", "triangular", "wavefront"}

// keywords of the mini language; never renamed.
var keywords = map[string]bool{
	"for": true, "to": true, "by": true, "loop": true, "while": true,
	"if": true, "else": true, "exit": true,
}

// renameScalars α-renames every scalar identifier of src by prefixing
// it. Array names (followed by '[') keep their spelling because the
// interpreters derive initial array contents from them, and loop labels
// (followed by ':') keep theirs because reports print them; so the
// renamed program does exactly the same work under different names.
func renameScalars(src, prefix string) string {
	var sb strings.Builder
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			j := strings.IndexByte(src[i:], '\n')
			if j < 0 {
				j = len(src) - i
			}
			sb.WriteString(src[i : i+j])
			i += j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			word := src[i:j]
			k := j
			for k < len(src) && (src[k] == ' ' || src[k] == '\t') {
				k++
			}
			next := byte(0)
			if k < len(src) {
				next = src[k]
			}
			if !keywords[word] && next != '[' && next != ':' {
				sb.WriteString(prefix)
			}
			sb.WriteString(word)
			i = j
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return sb.String()
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

// seedPrefix draws a three-letter rename prefix; every scalar of a
// workload is renamed with the same one, so names stay distinct and
// their lengths do not depend on the seed.
func seedPrefix(rng *rand.Rand) string {
	b := []byte{'z', 0, 0}
	b[1] = 'a' + byte(rng.Intn(26))
	b[2] = 'a' + byte(rng.Intn(26))
	return string(b)
}

// corpusInputs are the paper's programs, unrenamed: their expectations
// name SSA values.
func corpusInputs() []input {
	out := make([]input, 0, len(paper.Corpus))
	for i := range paper.Corpus {
		p := &paper.Corpus[i]
		out = append(out, input{name: "paper/" + p.ID, src: p.Source, expect: p})
	}
	return out
}

// exampleInputs reads the program literal of every examples/* program
// under root and renames it with prefix.
func exampleInputs(root, prefix string) ([]input, error) {
	out := make([]input, 0, len(exampleNames))
	for _, name := range exampleNames {
		src, err := cliutil.ReadProgram(filepath.Join(root, "examples", name, "main.go"))
		if err != nil {
			return nil, err
		}
		out = append(out, input{name: "example/" + name, src: renameScalars(src, prefix)})
	}
	return out, nil
}

// depInputs returns progen.DepWorkload(first..first+n-1), renamed. The
// program set is fixed: DepWorkload's cost is heavy-tailed (a few
// programs cost 10-20x the median), so drawing the set from the seed
// would make the seed, not the code, decide the tail percentiles. The
// seed varies the names and the order instead.
func depInputs(first, n int, prefix string) []input {
	out := make([]input, 0, n)
	for s := first; s < first+n; s++ {
		out = append(out, input{
			name: fmt.Sprintf("dep/%d", s),
			src:  renameScalars(progen.DepWorkload(int64(s)), prefix),
		})
	}
	return out
}

// coldDeps is how many dependence workloads analyze-cold cycles over. A
// wide mix keeps the pooled tail percentiles inside a continuum of
// programs: with a few dozen, the top 1% of samples is one program, and
// p99 flips between the two heaviest programs' times from run to run.
const coldDeps = 1000

// coldInputs is the analyze-cold mix: the paper corpus, the examples
// and coldDeps dependence workloads, in seeded order.
func coldInputs(root string, seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := seedPrefix(rng)
	ex, err := exampleInputs(root, prefix)
	if err != nil {
		return nil, err
	}
	in := append(corpusInputs(), ex...)
	in = append(in, depInputs(0, coldDeps, prefix)...)
	for i := range in {
		in[i].weight = kernelWeights[in[i].name]
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	return in, nil
}

// largeWeights are analyze-large's progen.Large widths and their cycle
// weights; cost grows with the width. Every seed sees the same spread.
var largeWeights = map[int]int{4: 5, 5: 5, 6: 5, 7: 5, 8: 10, 9: 6, 10: 5, 11: 8, 12: 1}

func largeInputs(seed int64) []input {
	rng := rand.New(rand.NewSource(seed))
	prefix := seedPrefix(rng)
	in := make([]input, 0, len(largeWeights))
	for k := 4; k <= 12; k++ {
		in = append(in, input{name: fmt.Sprintf("large/%d", k), src: renameScalars(progen.Large(k), prefix),
			weight: largeWeights[k]})
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	return in
}

// wrapKernel carries a wrap-around scalar, which peeling turns into an
// induction variable, and a constant-scaled induction product for
// strength reduction, so the peel pass has work in optimize-run.
const wrapKernel = `j = 0
m = 100
L1: for i = 1 to n {
    k = 3 * i
    a[k] = j + m
    m = i
    j = j + i
}
`

// relaxationStencil and columnStencil are the restructuring kernels of
// the repository's restructure benchmarks: a ping-pong relaxation whose
// inner loop is parallel as written, and a column stencil that becomes
// parallel once interchange moves its dependence-free loop outward. Row stride and
// extents keep the exact dependence test within its enumeration cap.
func relaxationStencil(sweeps, width int) string {
	return fmt.Sprintf(`cur = 1
old = 2
L1: for sweep = 1 to %d {
    L2: for i = 1 to %d {
        plane[cur * %d + i] = plane[old * %d + i] + i
    }
    t = cur
    cur = old
    old = t
}
`, sweeps, width, width+1, width+1)
}

func columnStencil(rows, cols int) string {
	stride := 8 * cols
	return fmt.Sprintf(`L1: for i = 0 to %d {
    L2: for j = 0 to %d {
        a[i * %d + j + %d] = a[i * %d + j] + j
    }
}
`, rows-1, cols-1, stride, stride, stride)
}

// kernelParams sizes the examples that take a parameter so that one
// sequential run executes for about a millisecond or more; relaxation
// and wavefront have fixed bounds.
var kernelParams = map[string]map[string]int64{
	"packing":    {"n": 12000},
	"quickstart": {"n": 5000},
	"strength":   {"n": 72},
	"triangular": {"n": 100},
}

// kernelWeights are optimize-run's cycle weights, by kernel.
var kernelWeights = map[string]int{
	"example/relaxation": 5, "example/quickstart": 5, "kernel/wrap": 5, "example/strength": 5,
	"example/triangular": 10, "example/packing": 6, "kernel/column": 5, "kernel/relaxation": 8,
	"example/wavefront": 1,
}

// kernelInputs is optimize-run's set: the two restructuring kernels,
// the wrap-around kernel and the six examples, renamed and in seeded
// order.
func kernelInputs(root string, seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := seedPrefix(rng)
	in := []input{
		{name: "kernel/relaxation", src: renameScalars(relaxationStencil(12, 384), prefix)},
		{name: "kernel/column", src: renameScalars(columnStencil(24, 80), prefix)},
		{name: "kernel/wrap", src: renameScalars(wrapKernel, prefix), params: map[string]int64{prefix + "n": 4000}},
	}
	ex, err := exampleInputs(root, prefix)
	if err != nil {
		return nil, err
	}
	for _, e := range ex {
		if p, ok := kernelParams[strings.TrimPrefix(e.name, "example/")]; ok {
			e.params = map[string]int64{}
			for k, v := range p {
				e.params[prefix+k] = v
			}
		}
		in = append(in, e)
	}
	for i := range in {
		in[i].weight = kernelWeights[in[i].name]
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	return in, nil
}
