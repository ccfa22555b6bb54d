// Command perfbench is the repository's benchmark: one process that drives
// the public entry points of every module on four workloads, checks their
// outputs, and prints one JSON result line. See README.md for the workloads,
// the metrics and which layer each metric watches.
//
//	go run . --workload mixed-attack --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with the
// benchmark's own tracing off. With --trace 1 it reports the per-layer
// metrics from a traced run at Workers = 1 and Workers = NumCPU, and writes
// the recorded spans under the scratch directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports, on every workload. An
// "op" is one engine round on the engine workloads and one session (submit
// until done, via the coordinator) on serve-fleet.
var endToEnd = []metricDef{
	{"agentsteps_per_s", "agents/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"snapshot_ms_p50", "ms"},
	{"restore_ms_p50", "ms"},
	{"setup_s", "s"},
	{"heap_live_mb", "MiB"},
}

// layerBase are the per-layer metrics measured once per worker count: a
// --trace 1 run reports each at Workers = NumCPU under its own name and at
// Workers = 1 under name + ".w1".
var layerBase = []metricDef{
	{"sim.round_ns", "ns"},
	{"sim.other_ns", "ns"},
	{"sim.phase_consistency", "ratio"},
	{"sim.alloc_bytes_per_round", "B"},
	{"sim.allocs_per_round", "count"},
	{"protocol.compose_ns", "ns"},
	{"protocol.step_ns", "ns"},
	{"protocol.eval_splits_per_epoch", "count"},
	{"protocol.eval_deaths_per_epoch", "count"},
	{"protocol.consistency_deaths_per_epoch", "count"},
	{"match.ns", "ns"},
	{"match.bucket_ns", "ns"},
	{"match.scatter_ns", "ns"},
	{"match.cand_ns", "ns"},
	{"match.walk_ns", "ns"},
	{"match.spec_walk_share", "ratio"},
	{"match.walk_conflict_rate", "ratio"},
	{"population.apply_ns", "ns"},
	{"population.births_per_round", "count"},
	{"population.deaths_per_round", "count"},
	{"adversary.turn_ns", "ns"},
	{"adversary.alterations_per_epoch", "count"},
	{"wire.snapshot_bytes", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.restore_ms_p50", "ms"},
	{"serve.checkpoint_put_ms_p50", "ms"},
	{"serve.checkpoints_per_session", "count"},
	{"serve.dedupe_hit_ratio", "ratio"},
	{"serve.restore_wake_miss_ratio", "ratio"},
	{"cluster.proxy_overhead_ms_p50", "ms"},
	{"obs.tracing_overhead", "ratio"},
}

// poolSpeedups are Workers = 1 time ÷ Workers = NumCPU time of one phase;
// below 1 a parallel path lost to its own serial fallback.
var poolSpeedups = []metricDef{
	{"pool.round_speedup", "ratio"},
	{"pool.match_speedup", "ratio"},
	{"pool.walk_speedup", "ratio"},
	{"pool.step_speedup", "ratio"},
}

// perLayer is the full --trace 1 metric list.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range layerBase {
		out = append(out, m, metricDef{m.name + ".w1", m.unit})
	}
	return append(out, poolSpeedups...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig, res *result) error{
	"mixed-attack": runEngine,
	"torus-attack": runEngine,
	"torus-churn":  runEngine,
	"serve-fleet":  runFleet,
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string
	nproc    int
}

// result accumulates one run's outcome. Safe for concurrent use.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int
	// aliases are extra figures printed under the workload's own names
	// (round_ms_p50, sessions_per_s, ...), with their units.
	aliases  map[string]string
	failures []string
	// defects counts sightings of known program defects that leave every
	// output correct (a late answer, not a wrong one), by description.
	defects map[string]int
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}, aliases: map[string]string{}, defects: map[string]int{}}
}

// op counts one attempted operation and reports whether it succeeded.
func (r *result) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.noteLocked(err.Error())
	}
	return err == nil
}

// check counts one output check and reports whether it passed.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.noteLocked(fmt.Sprintf(format, args...))
	}
	return ok
}

// defect records one sighting of a known program defect. It is reported
// with the run, and measured by the metrics it slows, but it fails no
// output check.
func (r *result) defect(desc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.defects[desc]++
}

// noteLocked keeps the first few failure messages for the report.
func (r *result) noteLocked(msg string) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// set records a metric value and the number of samples behind it.
func (r *result) set(name string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = v
	r.samples[name] = samples
}

// alias records a figure that is printed but not part of the result line.
func (r *result) alias(name, unit string, v float64, samples int) {
	r.set(name, v, samples)
	r.mu.Lock()
	r.aliases[name] = unit
	r.mu.Unlock()
}

// get returns a recorded metric value (0 when absent).
func (r *result) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// zeroMissing records 0, with no samples, for every metric of defs the
// workload did not measure: layers it does not exercise.
func (r *result) zeroMissing(defs []metricDef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = 0
		}
	}
}

// liveHeapMiB runs a collection and reports the live heap it found: what
// the run's live state occupies now, independent of when the collector
// last ran.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: mixed-attack, torus-attack, torus-churn or serve-fleet")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "run"), "directory for checkpoints and trace output")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scratch:  *scratch,
		nproc:    runtime.NumCPU(),
	}
	fmt.Printf("# machine num_cpu=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	// The servers log one access line per request. Format them as usual but
	// drop them, so the cost stays in the measurement and the output stays
	// readable.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	res := newResult()
	if err := run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	if err := report(os.Stdout, cfg, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the human-readable table and, last, the result line.
func report(w io.Writer, cfg runConfig, res *result, defs []metricDef) error {
	res.mu.Lock()
	defer res.mu.Unlock()
	out := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		if !validName(d.name) {
			return fmt.Errorf("metric name %q breaks the naming rule", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-42s %16.6g %-9s samples=%d\n", d.name, v, d.unit, res.samples[d.name])
	}
	// The aliases, and the error rate the result line carries as
	// attempted/failed.
	names := make([]string, 0, len(res.aliases))
	for name := range res.aliases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-42s %16.6g %-9s samples=%d (alias)\n", name, res.metrics[name], res.aliases[name], res.samples[name])
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-42s %16.6g %-9s failed=%d attempted=%d\n", "error_rate", errRate, "ratio", res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	descs := make([]string, 0, len(res.defects))
	for d := range res.defects {
		descs = append(descs, d)
	}
	sort.Strings(descs)
	for _, d := range descs {
		fmt.Fprintf(w, "# KNOWN DEFECT seen %d times: %s\n", res.defects[d], d)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
