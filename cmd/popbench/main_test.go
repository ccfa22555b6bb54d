package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// E13 is the cheapest experiment in the suite.
	if err := run([]string{"-scale", "quick", "-run", "E13"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdown(t *testing.T) {
	if err := run([]string{"-scale", "quick", "-run", "E13", "-markdown"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Error("accepted unknown scale")
	}
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Error("accepted unknown experiment")
	}
}

func TestRefreshBaseline(t *testing.T) {
	path := t.TempDir() + "/baseline.json"
	// -run narrows the suite to keep the test fast; the default (full
	// suite) is what regenerates the committed baseline.
	if err := run([]string{"-refresh-baseline", "-baseline", path, "-run", "E13"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if rep.Scale != "quick" || len(rep.Experiments) != 1 || len(rep.Benchmarks) == 0 {
		t.Fatalf("baseline document %+v lacks forced quick/json/bench shape", rep)
	}
	// The refreshed document must diff cleanly against itself.
	if err := run([]string{"-diff", path, path}); err != nil {
		t.Fatalf("fresh baseline does not pass its own gate: %v", err)
	}
}

func TestRefreshBaselineFlagConflicts(t *testing.T) {
	if err := run([]string{"-refresh-baseline", "-diff", "a", "b"}); err == nil {
		t.Error("accepted -refresh-baseline with -diff")
	}
	if err := run([]string{"-refresh-baseline", "-list"}); err == nil {
		t.Error("accepted -refresh-baseline with -list")
	}
}

func TestRunJSON(t *testing.T) {
	// Capture stdout and validate the machine-readable document parses and
	// carries the fields perf tracking depends on.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	// Drain concurrently: run() writes synchronously, so an undrained pipe
	// would deadlock once output exceeds the pipe buffer.
	outCh := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- b
	}()
	runErr := run([]string{"-scale", "quick", "-run", "E13", "-json"})
	w.Close()
	os.Stdout = old
	out := <-outCh
	if runErr != nil {
		t.Fatalf("run: %v (output %q)", runErr, out)
	}
	var rep jsonReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.SchemaVersion != 1 || rep.Scale != "quick" || rep.Failures != 0 {
		t.Errorf("unexpected report header: %+v", rep)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments", len(rep.Experiments))
	}
	e := rep.Experiments[0]
	if e.ID != "E13" || !e.Reproduced || e.Verdict == "" || e.ElapsedMS < 0 {
		t.Errorf("unexpected experiment record: %+v", e)
	}
}

// writeReport marshals a jsonReport to a temp file for -diff tests.
func writeReport(t *testing.T, rep jsonReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(f, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// baseReport builds a healthy two-experiment, one-benchmark document.
func baseReport() jsonReport {
	return jsonReport{
		SchemaVersion: 1,
		Scale:         "quick",
		Seed:          7,
		Experiments: []jsonExperiment{
			{ID: "E1", Title: "main theorem", Verdict: "REPRODUCED: ok", Reproduced: true},
			{ID: "A8", Title: "topology gallery", Verdict: "REPRODUCED: ok", Reproduced: true},
		},
		Benchmarks: []jsonBenchmark{
			{Name: "TorusMatchN1048576", N: 1 << 20, Rounds: 5, AgentStepsPerSec: 1e7},
		},
	}
}

// TestDiffNoRegression: identical documents pass.
func TestDiffNoRegression(t *testing.T) {
	old := writeReport(t, baseReport())
	neu := writeReport(t, baseReport())
	if err := run([]string{"-diff", old, neu}); err != nil {
		t.Fatalf("identical documents diffed dirty: %v", err)
	}
}

// TestDiffVerdictRegressionFails is the CI gate's core contract: an
// experiment that flips REPRODUCED -> DEVIATION fails the diff.
func TestDiffVerdictRegressionFails(t *testing.T) {
	old := writeReport(t, baseReport())
	bad := baseReport()
	bad.Experiments[1].Reproduced = false
	bad.Experiments[1].Verdict = "DEVIATION: containment thresholds shifted"
	bad.Failures = 1
	neu := writeReport(t, bad)
	err := run([]string{"-diff", old, neu})
	if err == nil {
		t.Fatal("verdict regression did not fail the diff")
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestDiffMissingExperimentFails: a previously reproduced experiment that
// vanishes from the new run is a regression, not a silent pass.
func TestDiffMissingExperimentFails(t *testing.T) {
	old := writeReport(t, baseReport())
	short := baseReport()
	short.Experiments = short.Experiments[:1]
	neu := writeReport(t, short)
	if err := run([]string{"-diff", old, neu}); err == nil {
		t.Fatal("missing experiment did not fail the diff")
	}
}

// TestDiffPerfDropWarnsOnly: a >20% agentsteps/s drop warns but does not
// fail (wall-clock is machine-dependent), and new experiments are
// reported, not failed.
func TestDiffPerfDropWarnsOnly(t *testing.T) {
	old := writeReport(t, baseReport())
	slow := baseReport()
	slow.Benchmarks[0].AgentStepsPerSec = 0.5e7 // -50%
	slow.Experiments = append(slow.Experiments,
		jsonExperiment{ID: "A9", Title: "future", Verdict: "REPRODUCED: ok", Reproduced: true})
	neu := writeReport(t, slow)
	if err := run([]string{"-diff", old, neu}); err != nil {
		t.Fatalf("perf drop must warn, not fail: %v", err)
	}
	// A small drop stays silent; exercised via diffBenchmarks directly.
	var sb strings.Builder
	warns := diffBenchmarks(&sb,
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 100}},
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 90}})
	if len(warns) != 0 {
		t.Errorf("10%% drop warned: %v", warns)
	}
	warns = diffBenchmarks(&sb,
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 100}},
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 79}})
	if len(warns) != 1 {
		t.Errorf("21%% drop produced %d warnings", len(warns))
	}
}

// TestDiffAllocRegressionWarnsOnly: per-round allocation growth beyond 20%
// warns (both allocs/round and bytes/round) but never fails the diff, and
// the gate stays silent for pre-metric baselines (old == 0), sub-noise
// absolute values, and growth inside the tolerance.
func TestDiffAllocRegressionWarnsOnly(t *testing.T) {
	var sb strings.Builder
	warns := diffBenchmarks(&sb,
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 100, AllocsPerRound: 100, BytesPerRound: 1e6}},
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 100, AllocsPerRound: 200, BytesPerRound: 3e6}})
	if len(warns) != 2 {
		t.Fatalf("alloc regression produced %d warnings, want 2: %v", len(warns), warns)
	}
	for _, w := range warns {
		if !strings.Contains(w, "grew") {
			t.Errorf("warning %q does not describe growth", w)
		}
	}

	// Warn-only: a whole-document diff with the same regression passes.
	oldRep := baseReport()
	oldRep.Benchmarks[0].AllocsPerRound = 100
	oldRep.Benchmarks[0].BytesPerRound = 1e6
	newRep := baseReport()
	newRep.Benchmarks[0].AllocsPerRound = 500
	newRep.Benchmarks[0].BytesPerRound = 5e6
	if err := run([]string{"-diff", writeReport(t, oldRep), writeReport(t, newRep)}); err != nil {
		t.Fatalf("alloc regression must warn, not fail: %v", err)
	}

	// Silent cases.
	for _, tc := range []struct {
		name     string
		old, cur jsonBenchmark
	}{
		{"pre-metric baseline", jsonBenchmark{Name: "x", AgentStepsPerSec: 1},
			jsonBenchmark{Name: "x", AgentStepsPerSec: 1, AllocsPerRound: 1000, BytesPerRound: 1e7}},
		{"below noise floor", jsonBenchmark{Name: "x", AgentStepsPerSec: 1, AllocsPerRound: 2, BytesPerRound: 100},
			jsonBenchmark{Name: "x", AgentStepsPerSec: 1, AllocsPerRound: 10, BytesPerRound: 1000}},
		{"growth inside tolerance", jsonBenchmark{Name: "x", AgentStepsPerSec: 1, AllocsPerRound: 100, BytesPerRound: 1e6},
			jsonBenchmark{Name: "x", AgentStepsPerSec: 1, AllocsPerRound: 110, BytesPerRound: 1.1e6}},
	} {
		if warns := diffBenchmarks(&sb, []jsonBenchmark{tc.old}, []jsonBenchmark{tc.cur}); len(warns) != 0 {
			t.Errorf("%s warned: %v", tc.name, warns)
		}
	}
}

// TestDiffRejectsBadInput covers argument and document validation.
func TestDiffRejectsBadInput(t *testing.T) {
	good := writeReport(t, baseReport())
	if err := run([]string{"-diff", good}); err == nil {
		t.Error("accepted one argument")
	}
	if err := run([]string{"-diff", good, filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("accepted missing file")
	}
	junk := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(junk, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-diff", good, junk}); err == nil {
		t.Error("accepted non-popbench document")
	}
}

// TestDiffWarnsWhenAllBenchmarksGone: dropping -bench from the new run
// must surface a warning, not silently retire the perf gate.
func TestDiffWarnsWhenAllBenchmarksGone(t *testing.T) {
	var sb strings.Builder
	warns := diffBenchmarks(&sb,
		[]jsonBenchmark{{Name: "x", AgentStepsPerSec: 100}}, nil)
	if len(warns) != 1 {
		t.Errorf("empty new benchmark set produced %d warnings, want 1", len(warns))
	}
	if warns := diffBenchmarks(&sb, nil, nil); len(warns) != 0 {
		t.Errorf("no-benchmarks-anywhere warned: %v", warns)
	}
}

// TestDiffAddedExperimentInformational: experiments present only in the new
// document are reported as added but never fail the diff — not even when
// the added experiment itself deviates (a new experiment's failure is its
// own, not a baseline regression).
func TestDiffAddedExperimentInformational(t *testing.T) {
	old := writeReport(t, baseReport())
	newRep := baseReport()
	newRep.Experiments = append(newRep.Experiments,
		jsonExperiment{ID: "A9", Title: "patch attacks", Verdict: "REPRODUCED: ok", Reproduced: true},
		jsonExperiment{ID: "A10", Title: "hypothetical", Verdict: "DEVIATION: bad", Reproduced: false})
	neu := writeReport(t, newRep)

	var sb strings.Builder
	if err := runDiff(&sb, old, neu); err != nil {
		t.Fatalf("added experiments failed the diff: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"2 added", "added: A9 (reproduced)", "added: A10 (DEVIATION)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}
