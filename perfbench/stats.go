package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value rests on a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (sorted in
// place) and whether at least minBeyond samples lie beyond it.
func percentile(samples []int64, p float64) (int64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank], n-1-rank >= minBeyond
}

// metric is one reported number with its unit and, for distributions,
// the sample count behind it.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int  // 0 when the metric is not a distribution statistic
	Valid   bool // false when a percentile lacks minBeyond samples beyond it
}

// metrics is an ordered set of reported numbers.
type metrics struct{ list []metric }

func (m *metrics) add(name string, v float64, unit string) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, Valid: true})
}

// addPct reports the p-quantile of ns-valued samples scaled by div
// (1e3 for µs, 1e6 for ms), with the sample count and the rule's verdict.
func (m *metrics) addPct(name string, samples []int64, p, div float64, unit string) {
	v, ok := percentile(samples, p)
	m.list = append(m.list, metric{Name: name, Value: float64(v) / div, Unit: unit, Samples: len(samples), Valid: ok})
}

// addHist is addPct for samples gathered in a histogram.
func (m *metrics) addHist(name string, h *histogram, p, div float64, unit string) {
	v, ok := h.percentile(p)
	m.list = append(m.list, metric{Name: name, Value: float64(v) / div, Unit: unit, Samples: int(h.count()), Valid: ok})
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// String renders one metric as a report line.
func (x metric) String() string {
	s := fmt.Sprintf("  %-40s %16.6g %-10s", x.Name, x.Value, x.Unit)
	if x.Samples > 0 {
		s += fmt.Sprintf(" n=%d", x.Samples)
	}
	if !x.Valid {
		s += fmt.Sprintf(" (fewer than %d samples beyond this percentile)", minBeyond)
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
