package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one metric's per-operation observations.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// quantile returns the q-quantile (0..1) by linear interpolation
// between order statistics; NaN when there are no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// backedPercentile is the highest percentile with at least ten samples
// above it (100*(1-10/n)), or 0 when that is below the median.
func backedPercentile(n int) float64 {
	p := math.Floor(1000*(1-10/float64(n))) / 10
	if p < 50 {
		return 0
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported figure. Samples is the count behind it, and
// Backed the highest percentile those samples support (0 for counts
// and ratios that are not per-operation timings).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Backed  float64 `json:"backed_pctl,omitempty"`
	// BackedValue is the value at Backed (timings only).
	BackedValue float64 `json:"backed_value,omitempty"`
}

// report collects metrics by name in insertion order.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, m metric) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = m
}

// value records a plain figure.
func (r *report) value(name, unit string, v float64) {
	r.set(name, metric{Value: v, Unit: unit})
}

// quantileOf records the q-quantile of a timing sample set, annotated
// with its sample count and highest backed percentile.
func (r *report) quantileOf(name, unit string, s samples, q float64) {
	bp := backedPercentile(len(s))
	m := metric{Value: s.quantile(q), Unit: unit, Samples: len(s), Backed: bp}
	if bp > 0 {
		m.BackedValue = s.quantile(bp / 100)
	}
	r.set(name, m)
}

// check returns an error naming the first metric that is not a finite
// number, so a run never prints NaN or Inf into its result.
func (r *report) check() error {
	for _, n := range r.names {
		if v := r.metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (too few samples?)", n)
		}
	}
	return nil
}
