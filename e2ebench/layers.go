package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"faction/internal/drift"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/obs/slo"
	"faction/internal/rngutil"
	"faction/internal/server"
)

// The traced pass measures every layer from outside, by timing calls into
// its public functions. Layers on the workload's own path see the
// workload's bodies; the others see a fixed probe built from the same seed.
// interactions.json says which is which.
const (
	probeN        = 600                    // requests per TCP probe phase
	replayFor     = 500 * time.Millisecond // minimum in-process replay time
	replayMin     = 200                    // minimum in-process replay calls
	refitRows     = 1536                   // rows of the refit probe's buffer
	fbRows        = 8                      // rows of one /feedback body
	feedbackPosts = refitRows / fbRows     // /feedback posts of the TCP probe
)

// traceBodies returns the bodies the traced pass replays for the workload
// (its own request shape) and the open-loop rate of its TCP probe.
func (b *bench) traceBodies(in inputs) (bodies []body, path string, rate float64) {
	switch b.workload {
	case "predict-small":
		return in.instanceBodies("/predict", 256, []int{1, 1, 1, 8}), "/predict", 1000
	default: // score-pool, and fig2-offline's pool scoring
		return in.instanceBodies("/score", 24, []int{256}), "/score", 400
	}
}

// layers is the traced pass.
func (b *bench) layers() error {
	in := makeInputs(b.seed)
	bodies, path, rate := b.traceBodies(in)
	fb := in.feedbackBodies(256, fbRows)

	tcp, dir, ks, err := b.probeBinaries(bodies, path, rate, fb)
	if err != nil {
		return err
	}
	c, err := loadChecker(dir)
	if err != nil {
		return err
	}
	b.checks = append(b.checks, c)
	for _, k := range ks {
		if path == "/predict" {
			c.predict(k.body, k.resp)
		} else {
			c.score(k.body, k.resp)
		}
	}
	if err := b.replayServer(c, bodies, path, fb); err != nil {
		return err
	}
	b.refitProbe(c, in)
	if err := b.offlineProbe(); err != nil {
		return err
	}

	handler := b.gated["server.handler_us"].Value
	b.gate("net.transport_us", "", tcp.directP50us-handler, "us", 0)
	b.gate("fleet.hop_us", "", tcp.routerP50us-tcp.directP50us, "us", 0)
	for _, n := range sortedKeys(b.gated) {
		m := b.gated[n]
		b.note(n, m.Value, m.Unit, 0)
	}
	return nil
}

// tcpProbe is what the traced pass measures over loopback.
type tcpProbe struct {
	directP50us, routerP50us float64
}

// probeBinaries starts faction-serve -online -wal-dir behind faction-router,
// sends the bodies open-loop to each, runs a closed-loop /feedback burst,
// reads the WAL and server counters from /metrics, and refits once. It
// checks every /feedback answer (strictly increasing LSN, running buffered
// count), the buffer gauge, and that /refit and /info agree on a generation
// one past the start's.
func (b *bench) probeBinaries(bodies []body, path string, rate float64, fb []body) (tcpProbe, string, []kept, error) {
	var out tcpProbe
	var mu sync.Mutex
	var ks []kept
	srv, rt, dir, _, err := b.startServing("trace", true, "-online", "-wal-dir", "wal")
	if err != nil {
		return out, "", nil, err
	}
	req := func(i int) []byte { return bodies[i%len(bodies)].req }
	b.count(load{addr: srv.addr, conns: b.nproc, rate: rate, n: probeN / 4, req: req}.run())
	// probe sends probeN bodies open-loop to p and returns their p50 in µs;
	// the phase is recorded as one span.
	var lateness []float64
	probe := func(p *proc, phase string) (float64, error) {
		start := time.Now()
		ss := load{addr: p.addr, conns: b.nproc, rate: rate, n: probeN, req: req,
			keep: keeper(bodies, 10, &mu, &ks)}.run()
		b.rec.add(phase, 0, 0, start, time.Now())
		b.count(ss)
		lateness = append(lateness, latenessMs(ss)...)
		p50, err := pct(path, latenciesMs(ss), 0.5)
		return p50.Value * 1e3, err
	}
	if out.directP50us, err = probe(srv, "probe.direct"); err != nil {
		return out, "", nil, err
	}
	if out.routerP50us, err = probe(rt, "probe.router"); err != nil {
		return out, "", nil, err
	}
	late, err := pct("generator lateness", lateness, 0.99)
	if err != nil {
		return out, "", nil, err
	}
	b.gate("bench.lateness_p99_ms", "", late.Value, "ms", late.N)

	var lastLSN uint64
	buffered := 0
	start := time.Now()
	// One connection: keep sees the answers in request order.
	ss := load{addr: srv.addr, conns: 1, n: feedbackPosts,
		req: func(i int) []byte { return fb[i%len(fb)].req },
		keep: func(i, status int, resp []byte) {
			if status != http.StatusOK {
				return
			}
			b.checked++
			var r struct {
				Buffered int    `json:"buffered"`
				LSN      uint64 `json:"lsn"`
			}
			if err := json.Unmarshal(resp, &r); err != nil {
				b.badf("/feedback: undecodable response: %v", err)
				return
			}
			buffered += len(fb[i%len(fb)].rows)
			if r.LSN <= lastLSN {
				b.badf("/feedback: LSN %d after %d, want strictly increasing", r.LSN, lastLSN)
			}
			lastLSN = r.LSN
			if r.Buffered != buffered {
				b.badf("/feedback: buffered %d, want %d", r.Buffered, buffered)
			}
		}}.run()
	b.rec.add("probe.feedback", 0, 0, start, time.Now())
	b.count(ss)
	m, err := scrape(srv.url())
	if err != nil {
		return out, "", nil, err
	}
	// /info carries no buffer size; the server exports it as a gauge.
	b.checked++
	if got := m["faction_feedback_buffered"]; got != float64(buffered) {
		b.badf("/metrics: faction_feedback_buffered %v, want %d", got, buffered)
	}
	if err := b.refitOnce(srv); err != nil {
		return out, "", nil, err
	}
	ratio := func(num, den string) float64 {
		if m[den] == 0 {
			return 0
		}
		return m[num] / m[den]
	}
	b.gate("wal.append_us", "", 1e6*ratio("faction_wal_append_seconds_sum", "faction_wal_append_seconds_count"), "us", 0)
	b.gate("wal.fsync_us", "", 1e6*ratio("faction_wal_fsync_seconds_sum", "faction_wal_fsync_seconds_count"), "us", 0)
	b.gate("wal.records_per_fsync", "", ratio("faction_wal_appends_total", "faction_wal_fsyncs_total"), "count", 0)
	b.gate("server.shed", "", m["faction_http_shed_total"], "count", 0)
	b.gate("server.timeouts", "", m["faction_http_timeouts_total"], "count", 0)
	b.gate("server.5xx", "", m["faction_http_responses_5xx_total"], "count", 0)
	srv.stop()
	rt.stop()
	return out, dir, ks, nil
}

// refitOnce posts one synchronous /refit and checks that it bumps the
// generation /info reported before it, and that /info reports the new one.
func (b *bench) refitOnce(srv *proc) error {
	var info struct {
		Generation uint64 `json:"generation"`
	}
	if err := getJSON(srv.url()+"/info", &info); err != nil {
		return err
	}
	before := info.Generation
	hc := &httpConn{addr: srv.addr}
	defer hc.close()
	start := time.Now()
	status, resp, err := hc.do(rawRequest("POST", "/refit", nil))
	b.rec.add("probe.refit", 0, 0, start, time.Now())
	b.attempted++
	if err != nil || status != http.StatusOK {
		b.failed++
		return fmt.Errorf("/refit answered %d (%v): %s", status, err, resp)
	}
	var r struct {
		Generation uint64 `json:"generation"`
	}
	b.checked += 2
	if err := json.Unmarshal(resp, &r); err != nil {
		b.badf("/refit: undecodable response: %v", err)
		return nil
	}
	if r.Generation != before+1 {
		b.badf("/refit: generation %d after %d, want +1", r.Generation, before)
	}
	if err := getJSON(srv.url()+"/info", &info); err != nil {
		return err
	}
	if info.Generation != r.Generation {
		b.badf("/info: generation %d, /refit answered %d", info.Generation, r.Generation)
	}
	return nil
}

// replayWriter is a reusable ResponseWriter that keeps only the status.
type replayWriter struct {
	h    http.Header
	code int
}

func (w *replayWriter) Header() http.Header { return w.h }
func (w *replayWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
func (w *replayWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// replayBody is a reusable request body.
type replayBody struct {
	b   []byte
	off int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
func (r *replayBody) Close() error { return nil }

// replayer calls a handler in process with reused request and writer, so
// the calls allocate only what the handler does.
type replayer struct {
	h    http.Handler
	w    replayWriter
	body replayBody
	req  *http.Request
}

func newReplayer(h http.Handler, path string) *replayer {
	r := &replayer{h: h, w: replayWriter{h: http.Header{}}}
	r.req, _ = http.NewRequest(http.MethodPost, path, nil) // a constant, valid URL
	r.req.Body = &r.body
	r.req.Header.Set("Content-Type", "application/json")
	return r
}

// call serves one body and returns the status.
func (r *replayer) call(b []byte) int {
	r.body.b, r.body.off = b, 0
	r.req.ContentLength = int64(len(b))
	clear(r.w.h)
	r.w.code = 0
	r.h.ServeHTTP(&r.w, r.req)
	return r.w.code
}

// newLocalServer builds an in-process server from the checker's artifacts
// with faction-serve's default configuration and -online.
func newLocalServer(c *checker, seed int64) (*server.Server, error) {
	spec := slo.DefaultSpec()
	return server.New(server.Config{
		Model: c.model.Clone(), Density: c.est, TrainLogDensities: c.est.TrainLogDensities,
		Lambda: serverLambda, Drift: drift.New(drift.Config{}),
		Online:    server.OnlineConfig{Enabled: true, Fair: nn.FairConfig{Mu: 0.7, Eps: 0.01}, Seed: seed},
		BatchRows: 64, MaxInflight: 64, RequestTimeout: 30 * time.Second, MaxBodyBytes: 8 << 20,
		HistoryInterval: 10 * time.Second, HistoryPoints: 512, SLO: &spec,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), Metrics: obs.NewRegistry(),
	})
}

// replayServer times Handler().ServeHTTP on the bodies untraced, then
// traced: each request gets a bench.request span whose children are the
// server.handler call and, after it, nn.forward and gda.density replaying
// the same rows through the model and density the server was built from.
// The replays run outside the handler, so they are its siblings, not its
// children. It also times /feedback without a WAL.
func (b *bench) replayServer(c *checker, bodies []body, path string, fb []body) error {
	srv, err := newLocalServer(c, b.seed)
	if err != nil {
		return err
	}
	defer srv.Close()
	rp := newReplayer(srv.Handler(), path)
	serve := func(i int) error {
		if code := rp.call(bodies[i%len(bodies)].json); code != http.StatusOK {
			b.failed++
			return fmt.Errorf("in-process %s answered %d", path, code)
		}
		return nil
	}
	// Warm up, then replay untraced for at least replayFor.
	for i := range len(bodies) {
		if err := serve(i); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var untraced []float64
	for start := time.Now(); len(untraced) < replayMin || time.Since(start) < replayFor; {
		t0 := time.Now()
		if err := serve(len(untraced)); err != nil {
			return err
		}
		untraced = append(untraced, float64(time.Since(t0))/1e3)
	}
	runtime.ReadMemStats(&ms1)
	n := len(untraced)
	b.attempted += n + len(bodies)

	xs := make([]*mat.Dense, len(bodies))
	for i, bd := range bodies {
		xs[i] = toDense(bd.rows)
	}
	var recording, fwd, dens []float64
	var logG []float64
	var scores gda.BatchScores
	for i := range n {
		t0 := time.Now()
		if err := serve(i); err != nil {
			return err
		}
		t1 := time.Now()
		x := xs[i%len(xs)]
		if cap(logG) < x.Rows {
			logG = make([]float64, x.Rows)
		}
		logG = logG[:x.Rows]
		a := mat.GetArena()
		t2 := time.Now()
		_, feats := c.model.LogitsAndFeaturesScratch(x, a)
		t3 := time.Now()
		if path == "/predict" {
			c.est.LogDensityBatchInto(logG, feats)
		} else {
			raw := c.est.ScoreBatchRaw(feats)
			raw.SliceInto(&scores, 0, feats.Rows)
			raw.Release()
		}
		t4 := time.Now()
		a.Release()
		r0 := time.Now()
		root := b.rec.add("bench.request", 0, int64(i), t0, t4)
		b.rec.add("server.handler", root, int64(i), t0, t1)
		b.rec.add("nn.forward", root, int64(i), t2, t3)
		b.rec.add("gda.density", root, int64(i), t3, t4)
		r1 := time.Now()
		// The handler runs the same code traced or not; what tracing adds
		// to a request is the recording of its spans. Timing that directly
		// keeps cache and clock drift between two loops out of the figure.
		recording = append(recording, float64(r1.Sub(r0))/1e3)
		fwd = append(fwd, float64(t3.Sub(t2))/1e3)
		dens = append(dens, float64(t4.Sub(t3))/1e3)
	}
	b.attempted += n

	untracedP50 := median(untraced)
	b.gate("server.handler_us", "", untracedP50, "us", 0)
	b.gate("nn.forward_us", "", median(fwd), "us", 0)
	b.gate("gda.density_us", "", median(dens), "us", 0)
	b.gate("server.self_us", "", untracedP50-median(fwd)-median(dens), "us", 0)
	b.gate("server.allocs_per_req", "", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count", 0)
	b.gate("server.alloc_bytes_per_req", "", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n), "B", 0)
	b.gate("bench.trace_overhead_pct", "", 100*median(recording)/untracedP50, "%", 0)

	// Bytes the density kernel moves per call at the median body's shape,
	// computed from shapes: features in, K whitening panels of D×D and K
	// means, K quads and one log density per row out.
	rows := len(bodies[len(bodies)/2].rows)
	d, k := c.est.Dim, c.est.NumComponents()
	b.gate("gda.bytes_per_call", "", float64(8*(rows*d+k*d*d+k*d+rows*k+rows)), "B", 0)

	frp := newReplayer(srv.Handler(), "/feedback")
	var fbt []float64
	for start := time.Now(); len(fbt) < replayMin || time.Since(start) < replayFor; {
		bd := fb[len(fbt)%len(fb)]
		t0 := time.Now()
		if code := frp.call(bd.json); code != http.StatusOK {
			b.failed++
			return fmt.Errorf("in-process /feedback answered %d", code)
		}
		t1 := time.Now()
		b.rec.add("server.feedback", 0, int64(len(fbt)), t0, t1)
		fbt = append(fbt, float64(t1.Sub(t0))/1e3)
	}
	b.attempted += len(fbt)
	b.gate("server.feedback_self_us", "", median(fbt), "us", 0)
	return nil
}

// refitProbe times what /refit runs: Classifier.Train on a copy of the
// served model over a buffer of labeled rows, with the server's refit
// options, then gda.Fit on the new features.
func (b *bench) refitProbe(c *checker, in inputs) {
	rows, y, s := in.batch(0, refitRows)
	x := toDense(rows)
	cand := c.model.Clone()
	t0 := time.Now()
	cand.Train(x, y, s, nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 10, BatchSize: 32, Fair: nn.FairConfig{Mu: 0.7, Eps: 0.01}},
		rngutil.Derive(b.seed, "server-refit", "1"))
	t1 := time.Now()
	_, err := gda.Fit(cand.Features(x), y, s, cand.Config().NumClasses, []int{-1, 1}, gda.Config{})
	t2 := time.Now()
	b.attempted += 2
	if err != nil {
		b.failed++
		b.badf("refit probe: gda.Fit: %v", err)
	}
	id := b.rec.add("server.refit", 0, 0, t0, t2)
	b.rec.add("nn.train", id, 0, t0, t1)
	b.rec.add("gda.fit", id, 0, t1, t2)
	b.gate("nn.refit_train_s", "", t1.Sub(t0).Seconds(), "s", 0)
	b.gate("gda.refit_fit_s", "", t2.Sub(t1).Seconds(), "s", 0)
}

// offlineProbe runs one traced Fig. 2 grid and attributes each online.Run
// to its protocol stages by self time.
func (b *bench) offlineProbe() error {
	st, runSeed, err := gridStream(b.seed)
	if err != nil {
		return err
	}
	first := len(b.rec.spans)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g, err := runGrid(st, b.seed, runSeed, b.nproc, b.rec)
	runtime.ReadMemStats(&ms1)
	b.attempted += len(g.runs)
	if err != nil {
		b.failed++
		return err
	}
	b.bad = append(b.bad, g.checkBudgets()...)

	spans := b.rec.spans[first:]
	self := selfTimes(spans)
	stage := map[string]time.Duration{}
	var factionSelect time.Duration
	// Coverage: the share of each run's wall that the self times of its
	// protocol stages account for. online.task's own self time, the task
	// loop's untraced work, is not a stage and does not count.
	stageTime := map[int64]time.Duration{}
	runWall := map[int64]time.Duration{}
	for _, s := range spans {
		stage[s.Name] += self[s.ID]
		switch s.Name {
		case "bench.run":
			runWall[s.Req] = s.dur()
		case "online.warmstart", "online.eval", "online.train", "online.select", "online.acquire", "online.fairness":
			stageTime[s.Req] += self[s.ID]
			if s.Name == "online.select" && g.runs[s.Req].Method == "FACTION" {
				factionSelect += self[s.ID]
			}
		}
	}
	minCover := 100.0
	for req, wall := range runWall {
		minCover = min(minCover, 100*stageTime[req].Seconds()/wall.Seconds())
	}
	if minCover < 95 {
		return fmt.Errorf("fig2 trace: stage self times cover only %.1f%% of an online.Run", minCover)
	}
	b.gate("online.train_s", "", (stage["online.train"] + stage["online.warmstart"]).Seconds(), "s", 0)
	b.gate("online.select_s", "", stage["online.select"].Seconds(), "s", 0)
	b.gate("online.eval_s", "", stage["online.eval"].Seconds(), "s", 0)
	b.gate("online.acquire_s", "", stage["online.acquire"].Seconds(), "s", 0)
	b.gate("faction.select_s", "", factionSelect.Seconds(), "s", 0)
	b.gate("online.alloc_mb", "", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, "MB", 0)
	b.gate("online.coverage_pct", "", minCover, "%", 0)
	fmt.Fprintf(os.Stderr, "e2ebench: fig2 trace: %d spans, grid %.2fs\n", len(spans), g.wall.Seconds())
	return nil
}
