package main

import (
	"sort"
	"time"
)

// Quantile rule. A latency quantile is taken per window of the run and
// the run's value is the median of its windows, which damps one noisy
// stretch on a shared box; when any window holds fewer than
// minWindowSamples samples the windows are too thin for that and the
// quantile of the whole run is reported instead.
const (
	windowLen        = 5 * time.Second
	minWindowSamples = 1000
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between order statistics; sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of vs (vs is sorted in place).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	return quantile(vs, 0.5)
}

// timed is one latency observation: when it completed, counted from the
// start of the measured run, and how long it took.
type timed struct {
	at  time.Duration
	lat float64
}

// windowQuantile applies the quantile rule to samples of a run of
// length runLen. It returns the value and the number of samples behind
// it; zero samples give (0, 0).
func windowQuantile(samples []timed, runLen time.Duration, q float64) (float64, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	nwin := int(runLen / windowLen)
	if nwin < 1 {
		nwin = 1
	}
	wins := make([][]float64, nwin)
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		w := int(s.at / windowLen)
		if w >= nwin {
			w = nwin - 1 // the last window absorbs the remainder
		}
		if w < 0 {
			w = 0
		}
		wins[w] = append(wins[w], s.lat)
		all = append(all, s.lat)
	}
	thin := false
	for _, w := range wins {
		if len(w) < minWindowSamples {
			thin = true
		}
	}
	if thin {
		sort.Float64s(all)
		return quantile(all, q), len(all)
	}
	per := make([]float64, nwin)
	for i, w := range wins {
		sort.Float64s(w)
		per[i] = quantile(w, q)
	}
	return median(per), len(all)
}

// medianRate returns the median, over equal slices of the run, of the
// operations completed per second in the slice; counts holds one entry
// per completion (lat is the number of operations it acknowledged). A
// stall of the box then costs one slice, not a share of the total. The
// slices are as short as keeps about a hundred operations in each, from
// one second up to a window.
func medianRate(counts []timed, runLen time.Duration) float64 {
	var total float64
	for _, c := range counts {
		total += c.lat
	}
	if total == 0 || runLen <= 0 {
		return 0
	}
	slice := time.Second
	for slice < windowLen && total/runLen.Seconds()*slice.Seconds() < 100 {
		slice += 2 * time.Second
	}
	n := int(runLen / slice)
	if n < 1 {
		return total / runLen.Seconds()
	}
	sums := make([]float64, n)
	for _, c := range counts {
		i := int(c.at / slice)
		if i >= n {
			i = n - 1 // the last slice absorbs the remainder
		}
		if i < 0 {
			i = 0
		}
		sums[i] += c.lat
	}
	last := runLen - time.Duration(n-1)*slice
	for i := range sums {
		if i == n-1 {
			sums[i] /= last.Seconds()
		} else {
			sums[i] /= slice.Seconds()
		}
	}
	return median(sums)
}
