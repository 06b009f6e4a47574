package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile. With fewer, the percentile is lowered until it holds, so
// a "p95" over 40 samples is never one sample's noise.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailQuantile returns the q-quantile of xs (nearest rank), the
// quantile actually used and the sample count. The quantile is lowered
// to the highest one that leaves at least minTail samples beyond it,
// but never below the median.
func tailQuantile(xs []float64, q float64) (value, used float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, q, 0
	}
	used = q
	if limit := 1 - float64(minTail)/float64(n); used > limit {
		used = limit
	}
	if used < 0.5 {
		used = 0.5
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(used*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], used, n
}

// attribute splits a parent span among named child layers measured
// separately (replays, explicit calls). Children are scaled down
// proportionally when their sum exceeds the parent, so the returned
// child times and the parent's self time are non-negative and add up
// to exactly the parent.
func attribute(parent float64, children []float64) (scaled []float64, self float64) {
	if parent < 0 {
		parent = 0
	}
	scaled = make([]float64, len(children))
	sum := 0.0
	for _, c := range children {
		if c > 0 {
			sum += c
		}
	}
	scale := 1.0
	if sum > parent && sum > 0 {
		scale = parent / sum
	}
	used := 0.0
	for i, c := range children {
		if c > 0 {
			scaled[i] = c * scale
			used += scaled[i]
		}
	}
	self = parent - used
	if self < 0 {
		self = 0
	}
	return scaled, self
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// splitmix64 is the deterministic mixer behind every seeded choice the
// schedule makes at run time (no shared rand state, no allocation).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
