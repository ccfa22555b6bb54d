package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {150, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 20; n <= 20000; n++ {
		p := tailPercentile(n)
		if beyond := n - rank(p, n); beyond < minTail {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
		// The next rung of the ladder would leave too few.
		if i := slices.Index(tailLadder, p); i+1 < len(tailLadder) {
			if next := tailLadder[i+1]; n-rank(next, n) >= minTail {
				t.Fatalf("n=%d: p%v chosen but p%v also leaves %d beyond", n, p, next, n-rank(next, n))
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	orig := slices.Clone(xs)
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !slices.Equal(xs, orig) {
		t.Error("percentile modified its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {120, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"identical", []interval{{120, 150}, {120, 150}}, 70},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
		{"sticking out", []interval{{50, 120}, {180, 260}}, 60},
		{"outside", []interval{{10, 90}, {200, 300}}, 100},
		{"unsorted overlap", []interval{{170, 190}, {105, 115}, {110, 175}}, 15},
		{"empty child", []interval{{150, 150}}, 100},
		{"covering", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "9", "sim.round_ns", "pool.walk_speedup", "serve-fleet", "x.w1", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".a", "_a", "-a", "a b", "a/b", "a:b", "ä", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the code: every workload has a
// runner, and the metric lists match what the runs print, name and unit.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(names), len(workloads))
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd)
	match("per_layer", doc.PerLayer, perLayer())
	seen := map[string]bool{}
	for _, n := range append(names, metricNames(append(endToEnd, perLayer()...))...) {
		if !validName(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func TestReqIDRoundTrip(t *testing.T) {
	for op := range opNames {
		id := reqID("0000002a", 7, op)
		trace, got, ok := parseReqID(id)
		if !ok || trace != "0000002a" || got != op {
			t.Errorf("parseReqID(%q) = %q, %d, %v", id, trace, got, ok)
		}
	}
	for _, bad := range []string{"", "0000002a0700", "0000002a07ff", "short", "0000002a070100"} {
		if _, _, ok := parseReqID(bad); ok {
			t.Errorf("parseReqID(%q) accepted", bad)
		}
	}
}
