package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over fewer than 1,000 samples is a maximum in disguise.
const minBeyond = 10

// tailLevels are the percentiles the tail helper considers, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// dist summarises one latency sample set: its size, its median and the
// highest percentile with at least minBeyond samples beyond it.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples strictly above the nearest-rank q-quantile's
// position in a set of n.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// summarize sorts a copy of xs and reports its median and tail. With too
// few samples for any tail level the tail is the median at q = 0.5.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.5), TailQ: 0.5, Tail: quantile(s, 0.5)}
	for _, q := range tailLevels {
		if beyond(len(s), q) >= minBeyond {
			d.TailQ, d.Tail = q, quantile(s, q)
			break
		}
	}
	return d
}

// at reports the q-quantile of xs, and whether xs holds enough samples
// for it to have minBeyond samples beyond it.
func at(xs []float64, q float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q), beyond(len(s), q) >= minBeyond
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	v, _ := at(xs, 0.5)
	return v
}

// finite is v, or nil (JSON null) when v is NaN or infinite: a percentile
// of a phase that sent nothing.
func finite(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}
