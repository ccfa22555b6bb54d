package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"popstab"
	"popstab/internal/cluster"
	"popstab/internal/obs"
	"popstab/internal/params"
	"popstab/internal/serve"
)

const (
	// fleetClients is the closed loop's size: each client waits for its
	// session's reply before sending the next. Two is the reference
	// machine's CPU count.
	fleetClients = 2
	// fleetN, fleetTinner and fleetEpochs size one submitted session.
	fleetN      = 4096
	fleetTinner = 24
	fleetEpochs = 6
	// sessionTTL is longer than a run's closed loop, so no session is
	// reaped while it runs. The heap is read after a fixed number of
	// sessions, so it then holds the same sessions on a fast host as on a
	// slow one; with a short TTL it would hold the last few seconds' worth,
	// and a faster serving path would read as a larger heap.
	sessionTTL = 5 * time.Minute
	gcInterval = 500 * time.Millisecond
	// waitQuery long-polls a session until done. A session takes a fraction
	// of a second, so one the wait has not seen finish within ten has failed.
	waitQuery = "status=done&timeout=10s"
	// restoreWait bounds each long-poll on a restored session. Restoring
	// runs no rounds, so the session is done as soon as it is rebuilt (a
	// few milliseconds); a long-poll that returns only at this timeout and
	// finds the session done missed its completion wake-up.
	restoreWait = 200 * time.Millisecond
	// restoreLimit is how long the restored session may take to be done.
	restoreLimit = 10 * time.Second
	// wakeMissDefect describes that missed wake-up: a zero-round job
	// finishes in its runner's idle loop (serve's Job.run), which marks it
	// done without broadcasting the job's condition variable, so a waiter
	// that arrived while it was queued sleeps until some other wake-up.
	wakeMissDefect = "restored session was done before its /wait long-poll woke " +
		"(Job.run finishes a zero-round job without broadcasting to waiters)"
	fleetTimeout = 30 * time.Second
	// loopGrace is how long past its window a closed loop may keep starting
	// iterations while it is short of its minimum count.
	loopGrace = 30 * time.Second
	// wireReps is how often the traced run decodes and re-encodes the last
	// fetched snapshot in-process.
	wireReps = 21
)

// request kinds, encoded into each request's trace ID so server-side spans
// can be classified and joined to the client call that caused them.
const (
	opSubmit = iota + 1
	opWait
	opSnapshot
	opRestore
	opRestoreWait
	opRestoreSnapshot
)

var opNames = map[int]string{
	opSubmit:          "submit",
	opWait:            "wait",
	opSnapshot:        "snapshot",
	opRestore:         "restore",
	opRestoreWait:     "restore_wait",
	opRestoreSnapshot: "restore_snapshot",
}

// fleetRounds is one session's requested length: whole epochs.
func fleetRounds() uint64 {
	p, err := params.Derive(fleetN, params.WithTinner(fleetTinner))
	if err != nil {
		panic(err) // constant parameters
	}
	return uint64(fleetEpochs * p.T)
}

// fleetSpec is the spec of one fresh submission.
func fleetSpec(seed uint64, workers int) popstab.Spec {
	return popstab.Spec{
		N: fleetN, Tinner: fleetTinner,
		Adversary: "greedy", K: 1, PerEpochBudget: lemma3Budget(fleetN),
		Seed: seed, Workers: workers,
	}
}

// timedStore times every checkpoint write of the CheckpointStore it wraps.
type timedStore struct {
	serve.CheckpointStore
	mu    sync.Mutex
	putMS []float64
}

func (s *timedStore) Put(cp serve.Checkpoint) error {
	t := time.Now()
	err := s.CheckpointStore.Put(cp)
	d := ms(time.Since(t))
	s.mu.Lock()
	s.putMS = append(s.putMS, d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) puts() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.putMS...)
}

// fleet is one in-process coordinator with one worker behind it, each on
// its own loopback HTTP server.
type fleet struct {
	coord     *cluster.Coordinator
	mgr       *serve.Manager
	coordSrv  *httptest.Server
	workerSrv *httptest.Server
	store     *timedStore
	dir       string
	stopJoin  context.CancelFunc
	client    *http.Client
	rec       *recorder
	sessions  atomic.Uint64
}

// startFleet starts the worker (FSStore checkpoints in a fresh directory
// under scratch), the coordinator, and registers the worker through the
// coordinator's HTTP API. With rec, both servers' handlers record a span
// per traced request.
func startFleet(scratch string, rec *recorder) (*fleet, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	fs, err := serve.NewFSStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fleet{store: &timedStore{CheckpointStore: fs}, dir: dir, rec: rec}
	f.mgr = serve.NewManager(serve.Config{Store: f.store, SessionTTL: sessionTTL, GCInterval: gcInterval})
	f.coord = cluster.NewCoordinator(cluster.Config{})
	f.workerSrv = httptest.NewServer(handlerSpans(rec, "worker", serve.NewHandler(f.mgr)))
	f.coordSrv = httptest.NewServer(handlerSpans(rec, "coordinator", cluster.NewHandler(f.coord)))
	f.client = &http.Client{Timeout: fleetTimeout}
	ctx, cancel := context.WithCancel(context.Background())
	f.stopJoin = cancel
	if err := cluster.Join(ctx, cluster.JoinConfig{
		Coordinator: f.coordSrv.URL,
		Advertise:   f.workerSrv.URL,
		Readiness:   f.mgr.Readiness,
	}); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the fleet in dependency order and removes its checkpoints.
func (f *fleet) close() {
	f.stopJoin()
	f.client.CloseIdleConnections()
	f.coordSrv.Close()
	f.coord.Close()
	f.workerSrv.Close()
	f.mgr.Close()
	os.RemoveAll(f.dir)
}

// handlerSpans wraps a server's handler so each request carrying a
// benchmark trace ID records a span. The coordinator propagates the ID to
// the worker, so a worker span's parent is the coordinator span of the same
// ID. With a nil recorder it returns h unchanged.
func handlerSpans(rec *recorder, service string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(obs.TraceHeader)
		t0 := rec.now()
		h.ServeHTTP(w, r)
		t1 := rec.now()
		trace, op, ok := parseReqID(req)
		if !ok {
			return // heartbeats and other calls the benchmark did not trace
		}
		s := span{Trace: trace, Name: service + "." + opNames[op], Start: t0, End: t1}
		if service == "coordinator" {
			s.ID, s.Parent = req+"/c", req
		} else {
			s.ID, s.Parent = fmt.Sprintf("%s/w%d", req, seq.Add(1)), req+"/c"
		}
		rec.add(s)
	})
}

// reqID is a request's trace ID: the session's 8-hex-digit trace, a
// 2-digit sequence number and a 2-digit request kind — hex only, so the
// servers adopt it as their own trace ID.
func reqID(trace string, seq, op int) string {
	return fmt.Sprintf("%s%02x%02x", trace, seq, op)
}

func parseReqID(id string) (trace string, op int, ok bool) {
	if len(id) != 12 {
		return "", 0, false
	}
	v, err := strconv.ParseUint(id[10:], 16, 8)
	if err != nil || opNames[int(v)] == "" {
		return "", 0, false
	}
	return id[:8], int(v), true
}

// call makes one JSON request through the coordinator.
func (f *fleet) call(method, path, id string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, f.coordSrv.URL+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, id)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sessionSample is one completed client iteration.
type sessionSample struct {
	sessionMS, snapshotMS, restoreMS float64
	repeat, deduped                  bool
	// wakeMiss: the restore long-poll missed the session's completion.
	wakeMiss bool
}

// fleetClient is one closed-loop caller.
type fleetClient struct {
	f        *fleet
	res      *result
	workers  int
	seedBase uint64
	rng      *rand.Rand
	iter     int
	repeatAt int
	prev     *popstab.Spec
	prevSnap []byte
}

// iteration runs one session: submit (one in four repeats the previous
// spec, which must dedupe), long-poll until done, fetch the snapshot,
// restore it as a new session and long-poll that, then check the restored
// session's snapshot equals the fetched one. ok is false when any step
// failed; the failure is already counted. A restore long-poll that missed
// the session's completion is counted as a known defect, not a failure:
// its answer is right, only late, and restore_ms_p50 includes the wait.
func (c *fleetClient) iteration() (s sessionSample, ok bool) {
	f, res := c.f, c.res
	rounds := fleetRounds()
	if c.iter%4 == 0 {
		// One iteration in each block of four, at a seeded position,
		// repeats an earlier spec; the first block has none to repeat
		// before its second iteration.
		c.repeatAt = c.rng.IntN(4)
		if c.prev == nil && c.repeatAt == 0 {
			c.repeatAt = 1 + c.rng.IntN(3)
		}
	}
	iter := c.iter
	c.iter++
	s.repeat = iter%4 == c.repeatAt && c.prev != nil
	spec := fleetSpec(c.seedBase+uint64(iter), c.workers)
	if s.repeat {
		spec = *c.prev
	}

	trace := fmt.Sprintf("%08x", f.sessions.Add(1))
	seq := 0
	do := func(op int, method, path string, body, out any) error {
		seq++
		id := reqID(trace, seq, op)
		t0 := f.rec.now()
		tc := time.Now()
		err := f.call(method, path, id, body, out)
		if err != nil {
			err = fmt.Errorf("client.%s after %v (iter %d, repeat %v): %w", opNames[op], time.Since(tc), iter, s.repeat, err)
		}
		f.rec.add(span{Trace: trace, ID: id, Parent: trace, Name: "client." + opNames[op], Start: t0, End: f.rec.now()})
		return err
	}
	t := time.Now()
	root := f.rec.now()
	defer func() {
		f.rec.add(span{Trace: trace, ID: trace, Name: "session", Start: root, End: f.rec.now()})
	}()

	var sub serve.SubmitResponse
	if !res.op(do(opSubmit, http.MethodPost, "/v1/sessions", serve.SubmitRequest{Spec: spec, Rounds: rounds}, &sub)) {
		return s, false
	}
	s.deduped = sub.Deduped
	res.check(sub.Deduped == s.repeat, "session %s: deduped=%v for a repeat=%v submission", sub.ID, sub.Deduped, s.repeat)
	var wr serve.WaitResponse
	if !res.op(do(opWait, http.MethodGet, "/v1/sessions/"+sub.ID+"/wait?"+waitQuery, nil, &wr)) {
		return s, false
	}
	s.sessionMS = ms(time.Since(t))
	if !res.check(wr.Reached && wr.Info.Status == serve.StatusDone && wr.Info.Stats.Round == rounds,
		"session %s: wait ended reached=%v status=%s round=%d, want done at %d",
		sub.ID, wr.Reached, wr.Info.Status, wr.Info.Stats.Round, rounds) {
		return s, false
	}

	t = time.Now()
	var snap serve.SnapshotResponse
	if !res.op(do(opSnapshot, http.MethodGet, "/v1/sessions/"+sub.ID+"/snapshot", nil, &snap)) {
		return s, false
	}
	s.snapshotMS = ms(time.Since(t))
	if s.repeat {
		res.check(bytes.Equal(snap.Snapshot, c.prevSnap), "session %s: a repeated spec's result differs from the first run's", sub.ID)
	}

	t = time.Now()
	var rsub serve.SubmitResponse
	if !res.op(do(opRestore, http.MethodPost, "/v1/sessions", serve.SubmitRequest{Spec: spec, Snapshot: snap.Snapshot}, &rsub)) {
		return s, false
	}
	var rwr serve.WaitResponse
	for {
		tp := time.Now()
		rwr = serve.WaitResponse{}
		if !res.op(do(opRestoreWait, http.MethodGet, "/v1/sessions/"+rsub.ID+"/wait?status=done&timeout="+restoreWait.String(), nil, &rwr)) {
			return s, false
		}
		if rwr.Reached || rwr.Info.Status == serve.StatusFailed || time.Since(t) >= restoreLimit {
			s.wakeMiss = rwr.Reached && time.Since(tp) >= restoreWait
			break
		}
	}
	s.restoreMS = ms(time.Since(t))
	if s.wakeMiss {
		res.defect(wakeMissDefect)
	}
	if !res.check(rwr.Reached && rwr.Info.Stats.Round == rounds,
		"restored session %s: wait ended reached=%v status=%s round=%d, want its snapshot round %d",
		rsub.ID, rwr.Reached, rwr.Info.Status, rwr.Info.Stats.Round, rounds) {
		return s, false
	}
	var rsnap serve.SnapshotResponse
	if !res.op(do(opRestoreSnapshot, http.MethodGet, "/v1/sessions/"+rsub.ID+"/snapshot", nil, &rsnap)) {
		return s, false
	}
	if !res.check(bytes.Equal(rsnap.Snapshot, snap.Snapshot), "restored session %s: snapshot differs from the one it was restored from", rsub.ID) {
		return s, false
	}

	if !s.repeat {
		c.prev, c.prevSnap = &spec, snap.Snapshot
	}
	return s, true
}

// loopStats is one closed-loop stretch's outcome.
type loopStats struct {
	samples []sessionSample // in order of completion
	wall    time.Duration
	// heapMiB is the live heap after a collection when the minSessions-th
	// iteration ended.
	heapMiB float64
	// spec and snap are the first client's last fresh session and the
	// snapshot fetched for it (nil when it completed none).
	spec popstab.Spec
	snap []byte
}

// closedLoop runs fleetClients clients against f until window has passed
// and minSessions iterations were attempted (each client runs at least
// one, and finishes the one it is in). No client starts an iteration later
// than loopGrace past the window, so a run whose iterations fail or stall
// still ends; a shortfall is counted as a failed check.
func closedLoop(f *fleet, res *result, seed uint64, segment, workers int, window time.Duration, minSessions int) loopStats {
	var (
		mu       sync.Mutex
		out      loopStats
		wg       sync.WaitGroup
		attempts atomic.Int64
	)
	clients := make([]*fleetClient, fleetClients)
	start := time.Now()
	for i := range clients {
		c := &fleetClient{
			f: f, res: res, workers: workers,
			seedBase: seed<<32 | uint64(segment)<<24 | uint64(i)<<20,
			rng:      rand.New(rand.NewPCG(seed, uint64(segment)<<8|uint64(i))),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < window || attempts.Load() < int64(minSessions); n++ {
				if n > 0 && time.Since(start) >= window+loopGrace {
					return
				}
				s, ok := c.iteration()
				mu.Lock()
				if ok {
					out.samples = append(out.samples, s)
				}
				if attempts.Add(1) == int64(minSessions) {
					out.heapMiB = liveHeapMiB()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	res.check(attempts.Load() >= int64(minSessions), "closed loop attempted %d of its %d sessions by %v past its window",
		attempts.Load(), minSessions, loopGrace)
	if c := clients[0]; c.prev != nil {
		out.spec, out.snap = *c.prev, c.prevSnap
	}
	return out
}

// runFleet runs the serve-fleet workload.
func runFleet(cfg runConfig, res *result) error {
	fmt.Printf("# workload %s clients=%d (closed loop) session: N=%d Tinner=%d rounds=%d adversary=greedy K=1 per_epoch_budget=%d; "+
		"one submission in four repeats an earlier spec; seed=%d\n",
		cfg.workload, fleetClients, fleetN, fleetTinner, fleetRounds(), lemma3Budget(fleetN), cfg.seed)
	scratch := filepath.Join(cfg.scratch, "tmp")
	if cfg.trace {
		return traceFleet(cfg, scratch, res)
	}
	var (
		setups []float64
		f      *fleet
	)
	// Set-up: fleet start, registration and one warm-up session per
	// client, repeated; the last fleet stays up for the measured window.
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		t := time.Now()
		var err error
		if f, err = startFleet(scratch, nil); err != nil {
			return err
		}
		closedLoop(f, res, cfg.seed, 0xff, 0, 0, 0)
		setups = append(setups, time.Since(t).Seconds())
	}
	defer f.close()

	loop := closedLoop(f, res, cfg.seed, 0, 0, time.Duration(cfg.seconds*float64(time.Second)), minSamples)
	var sess, snap, rest []float64
	agentSteps := 0.0
	for _, s := range loop.samples {
		sess = append(sess, s.sessionMS)
		snap = append(snap, s.snapshotMS)
		rest = append(rest, s.restoreMS)
		if !s.deduped {
			// The nominal work of a fresh session; a deduped repeat runs
			// nothing.
			agentSteps += float64(fleetN) * float64(fleetRounds())
		}
	}
	res.set("agentsteps_per_s", agentSteps/loop.wall.Seconds(), len(loop.samples))
	res.set("op_ms_p50", median(sess), len(sess))
	res.set("op_ms_p90", percentile(sess, 90), len(sess))
	res.alias("session_ms_p50", "ms", median(sess), len(sess))
	res.alias("session_ms_p90", "ms", percentile(sess, 90), len(sess))
	if p := tailPercentile(len(sess)); p > 90 {
		res.alias(fmt.Sprintf("session_ms_p%g", p), "ms", percentile(sess, p), len(sess))
	}
	res.alias("sessions_per_s", "1/s", rate(loop), len(loop.samples))
	res.set("snapshot_ms_p50", median(snap), len(snap))
	res.set("restore_ms_p50", median(rest), len(rest))
	res.alias("restore_wake_miss_ratio", "ratio", wakeMissRatio(loop), len(loop.samples))
	res.set("setup_s", median(setups), len(setups))
	res.set("heap_live_mb", loop.heapMiB, 1)
	return nil
}

// traceFleet is the --trace 1 run: four stretches on fresh fleets, untraced
// and traced with sessions at Workers = 1, then the same at NumCPU.
func traceFleet(cfg runConfig, scratch string, res *result) error {
	window := time.Duration(cfg.seconds / 4 * float64(time.Second))
	type stretch struct {
		loop         loopStats
		puts         []float64
		spans        []span
		encNS, decNS float64
	}
	run := func(segment, workers int, traced bool) (stretch, error) {
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		f, err := startFleet(scratch, rec)
		if err != nil {
			return stretch{}, err
		}
		closedLoop(f, res, cfg.seed, 0xfe, workers, 0, 0) // warm-up, untimed
		mark := len(f.store.puts())
		rec.reset() // only the measured window's spans count
		var st stretch
		st.loop = closedLoop(f, res, cfg.seed, segment, workers, window, 0)
		st.puts = f.store.puts()[mark:]
		f.close()
		if rec != nil {
			// After the loop, so the stretch's session rate is that of
			// the serving path alone.
			st.encNS, st.decNS = wireLayer(rec, res, st.loop.spec, st.loop.snap)
			st.spans = rec.snapshot()
		}
		return st, nil
	}
	var all []span
	for i, wk := range []struct {
		suffix  string
		workers int
	}{{".w1", 1}, {"", cfg.nproc}} {
		untraced, err := run(2*i+1, wk.workers, false)
		if err != nil {
			return err
		}
		traced, err := run(2*i+2, wk.workers, true)
		if err != nil {
			return err
		}
		all = append(all, traced.spans...)
		for name, v := range fleetLayerMetrics(traced.loop, traced.puts, traced.spans, traced.encNS, traced.decNS) {
			res.set(name+wk.suffix, v, len(traced.loop.samples))
		}
		res.set("obs.tracing_overhead"+wk.suffix, ratio(rate(traced.loop), rate(untraced.loop)), len(traced.loop.samples))
		res.alias("session_ms_p50"+wk.suffix, "ms", median(sessionMS(traced.loop)), len(traced.loop.samples))
	}
	res.set("pool.round_speedup", ratio(res.get("session_ms_p50.w1"), res.get("session_ms_p50")), 0)
	res.zeroMissing(perLayer()) // the engine-layer metrics: not visible from the serving path
	return writeSpans(filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)), all)
}

func rate(l loopStats) float64 { return float64(len(l.samples)) / l.wall.Seconds() }

// wakeMissRatio is the share of a stretch's sessions whose restore
// long-poll missed the restored session's completion.
func wakeMissRatio(l loopStats) float64 {
	miss := 0
	for _, s := range l.samples {
		if s.wakeMiss {
			miss++
		}
	}
	return ratio(float64(miss), float64(len(l.samples)))
}

// wireLayer times the wire layer in-process on a served snapshot: decode
// (RestoreSessionFromSpec) and re-encode (Session.Snapshot), wireReps times
// each, and returns the medians. The re-encoded bytes must equal the served
// ones.
func wireLayer(rec *recorder, res *result, spec popstab.Spec, snap []byte) (encNS, decNS float64) {
	if !res.check(snap != nil, "no session completed, so there is no snapshot to decode") {
		return 0, 0
	}
	var enc, dec []float64
	for i := 0; i < wireReps; i++ {
		trace := fmt.Sprintf("wire-%d", i)
		t0 := rec.now()
		sess, err := popstab.RestoreSessionFromSpec(spec, snap)
		t1 := rec.now()
		if !res.op(err) {
			return 0, 0
		}
		blob := sess.Snapshot()
		t2 := rec.now()
		sess.Close()
		rec.add(span{Trace: trace, ID: trace + "/decode", Name: "wire.decode", Start: t0, End: t1})
		rec.add(span{Trace: trace, ID: trace + "/encode", Name: "wire.encode", Start: t1, End: t2})
		dec = append(dec, float64(t1-t0))
		enc = append(enc, float64(t2-t1))
		res.check(bytes.Equal(blob, snap), "in-process restore does not re-encode to the served snapshot")
	}
	return median(enc), median(dec)
}

func sessionMS(l loopStats) []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = s.sessionMS
	}
	return out
}

// fleetLayerMetrics derives the serving-path per-layer metrics of one
// traced stretch.
func fleetLayerMetrics(l loopStats, puts []float64, spans []span, encNS, decNS float64) map[string]float64 {
	var submit, restore, overhead []float64
	workerKids := map[string][]interval{}
	for _, s := range spans {
		if s.Parent != "" && len(s.Parent) > 2 && s.Parent[len(s.Parent)-2:] == "/c" {
			workerKids[s.Parent] = append(workerKids[s.Parent], s.interval())
			switch s.Name {
			case "worker.submit":
				submit = append(submit, ms(time.Duration(s.End-s.Start)))
			case "worker.restore":
				restore = append(restore, ms(time.Duration(s.End-s.Start)))
			}
		}
	}
	for _, s := range spans {
		if kids := workerKids[s.ID]; len(kids) > 0 {
			overhead = append(overhead, ms(time.Duration(selfTime(s.interval(), kids))))
		}
	}
	deduped := 0
	for _, s := range l.samples {
		if s.deduped {
			deduped++
		}
	}
	n := float64(len(l.samples))
	return map[string]float64{
		"serve.submit_ms_p50":           median(submit),
		"serve.restore_ms_p50":          median(restore),
		"serve.checkpoint_put_ms_p50":   median(puts),
		"serve.checkpoints_per_session": ratio(float64(len(puts)), n),
		"serve.dedupe_hit_ratio":        ratio(float64(deduped), n),
		"serve.restore_wake_miss_ratio": wakeMissRatio(l),
		"cluster.proxy_overhead_ms_p50": median(overhead),
		"wire.snapshot_bytes":           float64(len(l.snap)),
		"wire.encode_ns":                encNS,
		"wire.decode_ns":                decNS,
	}
}
