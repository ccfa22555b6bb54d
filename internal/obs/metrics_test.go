package obs

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parsedSample is one non-comment exposition line, decomposed.
type parsedSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition is a strict parser for the Prometheus text format subset
// the registry emits. It fails the test on any malformed line, HELP/TYPE
// appearing after samples of the same family, duplicate HELP/TYPE, or an
// unknown TYPE keyword, and returns the samples plus family→type map.
func parseExposition(t *testing.T, text string) ([]parsedSample, map[string]string) {
	t.Helper()
	var samples []parsedSample
	types := make(map[string]string)
	help := make(map[string]string)
	seenSample := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			keyword, fam := parts[1], parts[2]
			if !validName(fam) {
				t.Fatalf("line %d: invalid family name %q", ln+1, fam)
			}
			if seenSample[fam] {
				t.Fatalf("line %d: %s for %s after its samples", ln+1, keyword, fam)
			}
			switch keyword {
			case "HELP":
				if _, dup := help[fam]; dup {
					t.Fatalf("line %d: duplicate HELP for %s", ln+1, fam)
				}
				help[fam] = parts[3]
			case "TYPE":
				if _, dup := types[fam]; dup {
					t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fam)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[3])
				}
				types[fam] = parts[3]
			default:
				t.Fatalf("line %d: unknown comment keyword %q", ln+1, keyword)
			}
			continue
		}
		s := parseSampleLine(t, ln+1, line)
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s.name, "_bucket"), "_sum"), "_count")
		if types[fam] == "" && types[s.name] == "" {
			t.Fatalf("line %d: sample %q before TYPE", ln+1, s.name)
		}
		if types[fam] != "" {
			seenSample[fam] = true
		} else {
			seenSample[s.name] = true
		}
		samples = append(samples, s)
	}
	return samples, types
}

// parseSampleLine decomposes `name{k="v",...} value`.
func parseSampleLine(t *testing.T, ln int, line string) parsedSample {
	t.Helper()
	s := parsedSample{labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if space < 0 {
		t.Fatalf("line %d: no value separator in %q", ln, line)
	}
	if brace >= 0 && brace < space {
		s.name = rest[:brace]
		close := strings.LastIndexByte(rest, '}')
		if close < brace {
			t.Fatalf("line %d: unterminated label set in %q", ln, line)
		}
		labelText := rest[brace+1 : close]
		rest = rest[close+1:]
		for len(labelText) > 0 {
			eq := strings.IndexByte(labelText, '=')
			if eq < 0 || eq+1 >= len(labelText) || labelText[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", ln, line)
			}
			key := labelText[:eq]
			if !validName(key) {
				t.Fatalf("line %d: invalid label name %q", ln, key)
			}
			// Scan the quoted value honoring escapes.
			var val strings.Builder
			i := eq + 2
			for {
				if i >= len(labelText) {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := labelText[i]
				if c == '\\' {
					if i+1 >= len(labelText) {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch labelText[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c in %q", ln, labelText[i+1], line)
					}
					i += 2
					continue
				}
				if c == '"' {
					i++
					break
				}
				val.WriteByte(c)
				i++
			}
			s.labels[key] = val.String()
			if i < len(labelText) {
				if labelText[i] != ',' {
					t.Fatalf("line %d: expected , between labels in %q", ln, line)
				}
				i++
			}
			labelText = labelText[i:]
		}
	} else {
		s.name = rest[:space]
		rest = rest[space:]
	}
	valText := strings.TrimSpace(rest)
	var v float64
	switch valText {
	case "+Inf":
		v = math.Inf(1)
	case "-Inf":
		v = math.Inf(-1)
	case "NaN":
		v = math.NaN()
	default:
		var err error
		v, err = strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln, valText, err)
		}
	}
	if !validName(s.name) {
		t.Fatalf("line %d: invalid sample name %q", ln, s.name)
	}
	s.value = v
	return s
}

func scrape(t *testing.T, r *Registry) ([]parsedSample, map[string]string) {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return parseExposition(t, b.String())
}

func TestExpositionCountersGaugesAndEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("popstab_requests_total", "Requests with \\ and\nnewline in help.")
	c.Add(7)
	g := r.Gauge("popstab_temp", "A gauge.", "shard", `quo"te\back`+"\nnl")
	g.Set(-2.5)
	r.GaugeFunc("popstab_live", "Live value.", func() float64 { return 42 })

	samples, types := scrape(t, r)
	if types["popstab_requests_total"] != "counter" || types["popstab_temp"] != "gauge" || types["popstab_live"] != "gauge" {
		t.Fatalf("types = %v", types)
	}
	byName := map[string]parsedSample{}
	for _, s := range samples {
		byName[s.name] = s
	}
	if v := byName["popstab_requests_total"].value; v != 7 {
		t.Errorf("counter = %v, want 7", v)
	}
	if v := byName["popstab_live"].value; v != 42 {
		t.Errorf("gauge func = %v, want 42", v)
	}
	gs := byName["popstab_temp"]
	if gs.value != -2.5 {
		t.Errorf("gauge = %v, want -2.5", gs.value)
	}
	// The escaped label value must round-trip through the parser.
	if got := gs.labels["shard"]; got != `quo"te\back`+"\nnl" {
		t.Errorf("label round-trip = %q", got)
	}
}

func TestExpositionHistogramMonotoneBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("popstab_lat_seconds", "Latency.", []float64{0.01, 0.1, 1}, "phase", "step")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 2, 2, 2} {
		h.Observe(v)
	}
	samples, types := scrape(t, r)
	if types["popstab_lat_seconds"] != "histogram" {
		t.Fatalf("types = %v", types)
	}
	var buckets []parsedSample
	var sum, count float64
	haveSum, haveCount := false, false
	for _, s := range samples {
		switch s.name {
		case "popstab_lat_seconds_bucket":
			if s.labels["phase"] != "step" {
				t.Errorf("bucket lost its labels: %v", s.labels)
			}
			buckets = append(buckets, s)
		case "popstab_lat_seconds_sum":
			sum, haveSum = s.value, true
		case "popstab_lat_seconds_count":
			count, haveCount = s.value, true
		}
	}
	if !haveSum || !haveCount {
		t.Fatal("missing _sum or _count")
	}
	if len(buckets) != 4 {
		t.Fatalf("bucket lines = %d, want 4 (3 bounds + +Inf)", len(buckets))
	}
	// Cumulative counts must be monotone non-decreasing in le order, and
	// the +Inf bucket must equal _count.
	wantCum := []float64{1, 3, 4, 7}
	prevLE := math.Inf(-1)
	for i, b := range buckets {
		le := b.labels["le"]
		var bound float64
		if le == "+Inf" {
			bound = math.Inf(1)
		} else {
			var err error
			bound, err = strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", le, err)
			}
		}
		if bound <= prevLE {
			t.Fatalf("le bounds not increasing: %v after %v", bound, prevLE)
		}
		prevLE = bound
		if b.value != wantCum[i] {
			t.Errorf("bucket le=%s = %v, want %v", le, b.value, wantCum[i])
		}
		if i > 0 && b.value < buckets[i-1].value {
			t.Errorf("bucket counts not monotone at le=%s", le)
		}
	}
	if !math.IsInf(prevLE, 1) {
		t.Error("last bucket must be le=+Inf")
	}
	if count != 7 || buckets[3].value != count {
		t.Errorf("count = %v, +Inf bucket = %v, want 7", count, buckets[3].value)
	}
	if want := 0.005 + 0.05 + 0.05 + 0.5 + 6; math.Abs(sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("popstab_hot_seconds", "Hammered histogram.", DefBuckets)
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 20000
	var wg sync.WaitGroup
	// Hammer one histogram from GOMAXPROCS goroutines while a scraper
	// renders concurrently; under -race this is the data-race gate, and
	// the final totals check the atomics never dropped an observation.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("concurrent scrape: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	wantCount := uint64(workers * perWorker)
	if got := h.Count(); got != wantCount {
		t.Fatalf("count = %d, want %d", got, wantCount)
	}
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%100) / 1000
	}
	wantSum *= float64(workers)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	// The final scrape must parse and agree with the totals.
	samples, _ := scrape(t, r)
	for _, s := range samples {
		if s.name == "popstab_hot_seconds_count" && s.value != float64(wantCount) {
			t.Errorf("exposed count = %v, want %d", s.value, wantCount)
		}
	}
}

// TestRegistryConcurrentFirstRegistration races first registration of the
// same labelled series from several goroutines against a scraper. Every
// caller must get the one metric the registry exposes — a lazily filled
// sample would hand racing first callers different objects and lose their
// increments, and let a scrape read a sample with no metric yet. Under
// -race this is the data-race gate for registration.
func TestRegistryConcurrentFirstRegistration(t *testing.T) {
	const workers, series, perSeries = 4, 64, 10
	r := NewRegistry()
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("concurrent scrape: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < series; i++ {
				id := strconv.Itoa(i)
				for k := 0; k < perSeries; k++ {
					r.Counter("race_total", "Raced counter.", "series", id).Inc()
					r.Gauge("race_gauge", "Raced gauge.", "series", id).Add(1)
					r.Histogram("race_seconds", "Raced histogram.", DefBuckets, "series", id).Observe(0.001)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	const want = workers * perSeries
	for i := 0; i < series; i++ {
		id := strconv.Itoa(i)
		if got := r.Counter("race_total", "Raced counter.", "series", id).Value(); got != want {
			t.Errorf("series %s: counter = %d, want %d", id, got, want)
		}
		if got := r.Gauge("race_gauge", "Raced gauge.", "series", id).Value(); got != want {
			t.Errorf("series %s: gauge = %v, want %d", id, got, want)
		}
		if got := r.Histogram("race_seconds", "Raced histogram.", DefBuckets, "series", id).Count(); got != want {
			t.Errorf("series %s: histogram count = %d, want %d", id, got, want)
		}
	}
}

func TestRegistryIdempotentAndSorted(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("zeta_total", "z")
	b := r.Counter("zeta_total", "z")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	r.Counter("alpha_total", "a")
	r.Gauge("mid_gauge", "m", "k", "1")
	r.Gauge("mid_gauge", "m", "k", "2")
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Index(text, "alpha_total") > strings.Index(text, "mid_gauge") ||
		strings.Index(text, "mid_gauge") > strings.Index(text, "zeta_total") {
		t.Errorf("families not sorted:\n%s", text)
	}
	if strings.Count(text, "# TYPE mid_gauge gauge") != 1 {
		t.Errorf("TYPE must appear once per family:\n%s", text)
	}
	parseExposition(t, text)
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	r.Gauge("fleet_lag", "lag", "worker", "w-000")
	r.Gauge("fleet_lag", "lag", "worker", "w-001")
	r.Unregister("fleet_lag", "worker", "w-000")
	samples, _ := scrape(t, r)
	for _, s := range samples {
		if s.labels["worker"] == "w-000" {
			t.Error("unregistered sample still exposed")
		}
	}
	r.Unregister("fleet_lag", "worker", "w-001")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "fleet_lag") {
		t.Errorf("empty family still exposed:\n%s", b.String())
	}
	// Unregistering a never-registered metric is a no-op.
	r.Unregister("fleet_lag", "worker", "w-404")
}

func TestOnCollectRefreshesGauges(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	g := r.Gauge("refreshed", "refreshed before scrape")
	r.OnCollect(func() { g.Set(v) })
	v = 9
	samples, _ := scrape(t, r)
	if len(samples) != 1 || samples[0].value != 9 {
		t.Fatalf("collect hook did not run: %+v", samples)
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("updown", "up and down")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("gauge = %v after balanced adds", g.Value())
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "bad")
		}()
	}
	// Kind conflicts are programming errors too.
	r.Counter("dual_total", "first")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind conflict did not panic")
			}
		}()
		r.Gauge("dual_total", "second")
	}()
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		3:            "3",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
	// Shortest round-trip must re-parse to the same value.
	for _, v := range []float64{1e-9, 123456.789, 2.5e17} {
		back, err := strconv.ParseFloat(formatFloat(v), 64)
		if err != nil || back != v {
			t.Errorf("round-trip %v -> %q -> %v (%v)", v, formatFloat(v), back, err)
		}
	}
}
