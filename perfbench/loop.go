package main

import (
	"cmp"
	"math/rand"
	"runtime/metrics"
	"slices"
	"time"
)

// minWindow is the shortest window a run is cut into for best-half
// statistics.
const minWindow = time.Second

// loopStats is what one measured closed loop observed.
type loopStats struct {
	ops, failed int64
	wall        time.Duration // loop time, output checks excluded
	recs        []opRecord
	// windows holds the measured time of each complete window; records
	// of a trailing incomplete window carry its index len(windows).
	windows []time.Duration
	// stages holds per-input latencies of an op's named stages, ms.
	stages map[string]map[int][]float64
	// allocBytes and allocObjects are the heap allocations made inside
	// ops (not checks), summed over the loop.
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

// opRecord is one op: its input, window and latency in ms.
type opRecord struct {
	input, win int
	lat        float64
}

func newLoopStats() *loopStats {
	return &loopStats{stages: map[string]map[int][]float64{}}
}

func (s *loopStats) record(input, win int, lat time.Duration, ok bool) {
	s.ops++
	if !ok {
		s.failed++
	}
	s.recs = append(s.recs, opRecord{input: input, win: win, lat: ms(lat)})
}

// latencies returns every op latency, ms.
func (s *loopStats) latencies() []float64 {
	out := make([]float64, len(s.recs))
	for i, r := range s.recs {
		out[i] = r.lat
	}
	return out
}

// byInput groups op latencies by input.
func (s *loopStats) byInput() map[int][]float64 {
	out := map[int][]float64{}
	for _, r := range s.recs {
		out[r.input] = append(out[r.input], r.lat)
	}
	return out
}

// best keeps the faster half of the complete windows, ranked by ops per
// second, with their ops and time. On a shared host the CPU speed swings
// by tens of percent within seconds as other tenants load the machine;
// slow episodes hit some windows of a run and not others, so the faster
// half reflects the code rather than the episode. A code change slows
// every window alike, and shows in the faster half as much as in the
// whole. Windows are whole input cycles, so the kept samples keep the
// cycle's mix.
func (s *loopStats) best() *loopStats {
	if len(s.windows) < 2 {
		return s
	}
	count := make([]int, len(s.windows)+1)
	for _, r := range s.recs {
		count[r.win]++
	}
	order := make([]int, len(s.windows))
	for i := range order {
		order[i] = i
	}
	rate := func(w int) float64 { return float64(count[w]) / s.windows[w].Seconds() }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rate(b), rate(a)) })
	keep := map[int]bool{}
	out := newLoopStats()
	for _, w := range order[:(len(order)+1)/2] {
		keep[w] = true
		out.wall += s.windows[w]
	}
	for _, r := range s.recs {
		if keep[r.win] {
			out.ops++
			out.recs = append(out.recs, r)
		}
	}
	return out
}

func (s *loopStats) stage(name string, input int, d time.Duration) {
	m := s.stages[name]
	if m == nil {
		m = map[int][]float64{}
		s.stages[name] = m
	}
	m[input] = append(m[input], ms(d))
}

func (s *loopStats) throughput() float64 { return ratio(float64(s.ops), s.wall.Seconds()) }

// opFunc runs operation i on input k (recording stage times in s) and
// returns an output check to run outside the measured time; a nil check
// means the operation failed.
type opFunc func(i, k int, s *loopStats) (check func() bool)

// runtime/metrics samples read around each op when allocations are
// wanted, and around the loop for the GC CPU share.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// closedLoop calls op with one caller, cycling over the input indices
// of cycle, until dur of measured time has passed, and at least once
// (or maxOps times, when positive). Output checks run outside the
// measured time; an op whose check fails counts as failed.
func closedLoop(dur time.Duration, maxOps int, cycle []int, op opFunc, allocs bool) *loopStats {
	s := newLoopStats()
	var before, after [2]metrics.Sample
	copy(before[:], allocSamples)
	copy(after[:], allocSamples)
	cpu0 := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(cpu0)

	start := time.Now()
	var checking, winStart time.Duration
	for i := 0; ; i++ {
		if maxOps > 0 && i >= maxOps || maxOps <= 0 && i > 0 && time.Since(start)-checking >= dur {
			break
		}
		if allocs {
			metrics.Read(before[:])
		}
		k := cycle[i%len(cycle)]
		t0 := time.Now()
		check := op(i, k, s)
		lat := time.Since(t0)
		if allocs {
			metrics.Read(after[:])
			s.allocBytes += after[0].Value.Uint64() - before[0].Value.Uint64()
			s.allocObjects += after[1].Value.Uint64() - before[1].Value.Uint64()
		}
		c0 := time.Now()
		ok := check != nil && check()
		checking += time.Since(c0)
		s.record(k, len(s.windows), lat, ok)
		if now := time.Since(start) - checking; (i+1)%len(cycle) == 0 && now-winStart >= minWindow {
			s.windows = append(s.windows, now-winStart)
			winStart = now
		}
	}
	s.wall = time.Since(start) - checking

	cpu1 := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(cpu1)
	s.gcCPU = cpu1[0].Value.Float64() - cpu0[0].Value.Float64()
	s.totalCPU = cpu1[1].Value.Float64() - cpu0[1].Value.Float64()
	return s
}

// cycleOf lists input indices in the order a closed loop visits them:
// each input as many times as its weight (at least once), shuffled by
// the seed.
func cycleOf(in []input, seed int64) []int {
	var c []int
	for k, x := range in {
		for n := 0; n < max(x.weight, 1); n++ {
			c = append(c, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c
}
