package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: exact below
// 1024 ns, then 512 buckets per power of two (0.2% resolution) up to
// 2^40 ns. Recording is a few instructions and never allocates.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 512
	histMaxLog  = 40
	histBuckets = 2*histSub + (histMaxLog-10)*histSub
)

func bucketOf(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	if v >= 1<<histMaxLog {
		v = 1<<histMaxLog - 1
	}
	shift := bits.Len64(v) - 10 // v>>shift is in [512, 1024)
	return 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
}

// bucketMid is the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	j := i - 2*histSub
	shift := j/histSub + 1
	lo := uint64(j%histSub+histSub) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i) / 1e3
		}
	}
	return bucketMid(histBuckets-1) / 1e3
}

// latency summarizes a histogram: median and p99 in microseconds, the
// sample count and how many samples lie beyond the p99 rank.
type latency struct {
	p50, p99  float64
	n, beyond uint64
}

func (h *hist) summary() latency {
	return latency{p50: h.quantileUS(0.5), p99: h.quantileUS(0.99), n: h.n,
		beyond: h.n - uint64(math.Ceil(0.99*float64(h.n)))}
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation (xs is not modified).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
