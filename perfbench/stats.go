package main

import (
	"math"
	"regexp"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// fewer, and the percentile is one or two unlucky samples, not a tail.
const minTail = 10

// tailLadder is the set of percentiles the benchmark may report as a tail,
// in increasing order.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minTail of n samples strictly beyond it, or 0 when even the median
// does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p, n) >= minTail {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples: the smallest k with k ≥ p% of n. The epsilon keeps p·n/100 from
// rounding up past an exact integer (90% of 100 is rank 90, not 91).
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the nearest-rank p-th percentile of xs. xs need not be
// sorted; it is not modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(p, len(s))-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the rule every metric and workload name obeys: a letter or
// digit, then letters, digits, '_', '.' and '-', at most 64 in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return metricName.MatchString(s) }

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (the engine overlaps compose with
// matching) and may stick out of the parent; only their union inside the
// parent counts.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	covered := int64(0)
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range cs {
		if c.start > cur.end {
			if cur.end > cur.start {
				covered += cur.end - cur.start
			}
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	if cur.end > cur.start {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// ratio is a/b, or 0 when b is 0 (a phase absent at one worker count).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
