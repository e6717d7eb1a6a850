package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailOK reports whether the pct-th percentile of n samples has at least
// ten samples beyond it, the least that makes a tail percentile worth naming.
func tailOK(n, pct int) bool { return n*(100-pct) >= 1000 }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
