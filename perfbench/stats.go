package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// weightsHash fingerprints a weight vector bit-exactly.
func weightsHash(w []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:]) //nolint:errcheck // hash writes cannot fail
	}
	return h.Sum64()
}

func allFinite(w []float64) bool {
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return len(w) > 0
}
