// Package obs is the shared observability plane: a zero-dependency metrics
// registry with Prometheus text-format exposition, and lightweight in-memory
// request tracing (trace.go). Engine, serve, and cluster all instrument
// against this package; nothing here imports anything above the standard
// library, so it is safe at every layer including the sharded round loops.
//
// Hot-path cost is one atomic op per counter increment and a binary search
// plus two atomic ops per histogram observation; exposition walks the
// registry under a mutex but never blocks writers.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Stored as float64 bits; Set is
// a plain store, Add is a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative on
// exposition, per-bucket internally). Observe is safe from any number of
// goroutines: one binary search, one atomic bucket increment, one CAS loop
// for the sum.
type Histogram struct {
	// uppers are the inclusive upper bounds, sorted ascending; the +Inf
	// bucket is implicit as counts[len(uppers)].
	uppers  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets are latency buckets in seconds, spanning 100µs to 10s — wide
// enough for both a 30µs quantum on a small session (first bucket) and a
// multi-second snapshot of a 2²⁴ population (last).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricKind tags a family's exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is one labeled metric within a family.
type sample struct {
	labels  []string // alternating key, value
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family is all samples sharing a metric name; HELP/TYPE are emitted once
// per family.
type family struct {
	name    string
	help    string
	kind    metricKind
	order   []string // label signatures in registration order
	samples map[string]*sample
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
// Registration is idempotent: asking twice for the same name+labels returns
// the same metric. Registering the same name with a different kind panics —
// that is a programming error, not runtime input.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // family names in sorted order, maintained on insert
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect registers fn to run at the start of every WritePrometheus call,
// before the registry lock is taken. Use it to refresh gauges whose source
// of truth lives elsewhere (e.g. per-worker fleet state).
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// Counter returns the counter registered under name and labels (alternating
// key, value pairs), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, kindCounter, labels, nil, nil).counter
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, kindGauge, labels, nil, nil).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time. Re-registering the same name+labels replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, labels, nil, fn)
}

// Histogram returns the histogram registered under name and labels with the
// given bucket upper bounds (sorted copies are taken; +Inf is implicit),
// creating it on first use. Buckets must be non-empty.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket")
	}
	return r.register(name, help, kindHistogram, labels, buckets, nil).hist
}

// Unregister removes the metric under name+labels; when the family empties
// it disappears from exposition. Removing a metric that was never
// registered is a no-op.
func (r *Registry) Unregister(name string, labels ...string) {
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return
	}
	if _, ok := f.samples[sig]; !ok {
		return
	}
	delete(f.samples, sig)
	for i, s := range f.order {
		if s == sig {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	if len(f.samples) == 0 {
		delete(r.families, name)
		for i, n := range r.names {
			if n == name {
				r.names = append(r.names[:i], r.names[i+1:]...)
				break
			}
		}
	}
}

// register finds or creates the sample under name+labels. A new sample's
// metric is created here, under r.mu, so concurrent first callers share one
// metric and a scrape never sees a sample without one; the metric pointer
// never changes afterwards, so callers may read it once the lock is
// released. A non-nil fn (GaugeFunc) replaces the sample's gauge function,
// also under the lock.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64, fn func() float64) *sample {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list for " + name)
	}
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic("obs: invalid label name " + strconv.Quote(labels[i]) + " on " + name)
		}
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, samples: make(map[string]*sample)}
		r.families[name] = f
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered as " + kind.String() + ", was " + f.kind.String())
	}
	s := f.samples[sig]
	if s == nil {
		s = &sample{labels: append([]string(nil), labels...)}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			up := append([]float64(nil), buckets...)
			sort.Float64s(up)
			s.hist = &Histogram{uppers: up, counts: make([]atomic.Uint64, len(up)+1)}
		}
		f.samples[sig] = s
		f.order = append(f.order, sig)
	}
	if fn != nil {
		s.gaugeFn = fn
	}
	return s
}

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, HELP and TYPE once each, then
// one line per sample (histograms expand to cumulative le buckets plus _sum
// and _count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.names {
		f := r.families[name]
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, sig := range f.order {
			s := f.samples[sig]
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, "", s.labels, "", "", formatFloat(float64(s.counter.Value())))
			case kindGauge:
				v := 0.0
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				} else {
					v = s.gauge.Value()
				}
				writeSample(&b, f.name, "", s.labels, "", "", formatFloat(v))
			case kindHistogram:
				h := s.hist
				var cum uint64
				for i, up := range h.uppers {
					cum += h.counts[i].Load()
					writeSample(&b, f.name, "_bucket", s.labels, "le", formatFloat(up), strconv.FormatUint(cum, 10))
				}
				cum += h.counts[len(h.uppers)].Load()
				writeSample(&b, f.name, "_bucket", s.labels, "le", "+Inf", strconv.FormatUint(cum, 10))
				writeSample(&b, f.name, "_sum", s.labels, "", "", formatFloat(h.Sum()))
				writeSample(&b, f.name, "_count", s.labels, "", "", strconv.FormatUint(cum, 10))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample emits one exposition line: name+suffix, the sample's labels
// plus an optional extra label (the histogram le), and the value.
func writeSample(b *strings.Builder, name, suffix string, labels []string, extraKey, extraVal, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || extraKey != "" {
		b.WriteByte('{')
		first := true
		for i := 0; i+1 < len(labels); i += 2 {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		if extraKey != "" {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraVal)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// labelSig is the canonical identity of a label set within a family.
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		b.WriteString(labels[i])
		b.WriteByte('\x00')
		b.WriteString(labels[i+1])
		b.WriteByte('\x00')
	}
	return b.String()
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
