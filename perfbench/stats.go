package main

import (
	"math"
	"slices"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, and the number of samples strictly beyond it.
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond := 0
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// medianGM is the geometric mean, over distinct inputs, of each input's
// median sample: a per-input summary that does not flip between modes
// when a few disparate inputs are pooled.
func medianGM(byInput map[int][]float64) float64 {
	meds := make([]float64, 0, len(byInput))
	for _, xs := range byInput {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
