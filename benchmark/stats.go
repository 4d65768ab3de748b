package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported values in the order they were added, so tables
// print the same way on every run.
type metrics struct {
	names []string
	vals  map[string]metric
	// notes holds what a table prints beside a value, such as the larger
	// time it is a share of ("64.0% of exec.run_ms").
	notes map[string]string
}

func (m *metrics) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = make(map[string]metric)
	}
	if _, dup := m.vals[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	m.names = append(m.names, name)
	m.vals[name] = metric{Value: v, Unit: unit}
}

// addNote is add with a note for the table.
func (m *metrics) addNote(name string, v float64, unit, note string) {
	m.add(name, v, unit)
	if m.notes == nil {
		m.notes = make(map[string]string)
	}
	m.notes[name] = note
}

// addShare is add for a value that is the fraction frac of the metric or
// span named of.
func (m *metrics) addShare(name string, v float64, unit string, frac float64, of string) {
	m.addNote(name, v, unit, fmt.Sprintf("%.1f%% of %s", 100*frac, of))
}

// ratio is a/b, and 0 when b is 0: a layer that did no work has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), because that is how the driver judges spread. It needs two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
