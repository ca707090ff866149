package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

const (
	// setupReps is how many times a serving workload starts its processes;
	// setup_s is the median.
	setupReps = 9
	// latencyLimit is the p99 limit of the predict-small rate ladder.
	latencyLimit = time.Millisecond
	// refRate is predict-small's reference rate and routerRate the rate of
	// its router phase, in requests per second. Below about 3000/s the
	// latency of a 2-vCPU VM depends on how deeply its idle CPUs sleep
	// between requests, which differs from run to run.
	refRate    = 4000
	routerRate = 2000
	// ladderN is the request count of one rate-ladder probe: a p99 with 12
	// samples beyond it.
	ladderN = 1200
	// rateWindow is the window closed-loop throughput is counted over; the
	// reported rate is the median window.
	rateWindow = 250 * time.Millisecond
	// poolChunks is how many 256-row /score chunks make one task pool.
	poolChunks = 16
	// rounds is how many times predict-small repeats its reference, router
	// and capacity phases, interleaved, so that host noise covering one
	// round does not set a figure.
	rounds = 5
)

// startServing spawns faction-serve in a fresh directory under the run's
// work dir, training on the workload's stream seed, plus a faction-router in
// front of it when router is set, and waits until every process answers
// /readyz. The returned duration is the set-up time: spawn to all ready.
func (b *bench) startServing(name string, router bool, extra ...string) (srv, rt *proc, dir string, setup time.Duration, err error) {
	dir = filepath.Join(b.work, name)
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	args := append([]string{
		"-train", streamName, "-seed", strconv.FormatInt(b.seed, 10), "-samples", strconv.Itoa(trainSamples),
		"-model", filepath.Join(dir, "model.gob"), "-density", filepath.Join(dir, "density.gob"),
		"-addr", "127.0.0.1:0", "-log-format", "json",
	}, extra...)
	start := time.Now()
	if srv, err = spawn("faction-serve", filepath.Join(b.bin, "faction-serve"), args, dir, filepath.Join(dir, "serve.log"), b.nproc); err != nil {
		return
	}
	b.track(srv)
	if router {
		rargs := []string{"-replica", srv.url(), "-addr", "127.0.0.1:0", "-log-format", "json"}
		if rt, err = spawn("faction-router", filepath.Join(b.bin, "faction-router"), rargs, dir, filepath.Join(dir, "router.log"), b.nproc); err != nil {
			return
		}
		b.track(rt)
	}
	if err = srv.waitReady(60 * time.Second); err != nil {
		return
	}
	if rt != nil {
		if err = rt.waitReady(60 * time.Second); err != nil {
			return
		}
	}
	setup = time.Since(start)
	return
}

// setupRepeated starts the serving processes setupReps times, keeps the last
// set running, and returns every set-up time in seconds.
func (b *bench) setupRepeated(router bool, extra ...string) (srv, rt *proc, dir string, setups []float64, err error) {
	for i := range setupReps {
		if srv != nil {
			srv.stop()
			if rt != nil {
				rt.stop()
			}
		}
		var d time.Duration
		srv, rt, dir, d, err = b.startServing(fmt.Sprintf("setup%d", i), router, extra...)
		if err != nil {
			return
		}
		setups = append(setups, d.Seconds())
	}
	return
}

// pauseGC turns the runner's garbage collector off while it generates load,
// so that collection in the runner does not show up as server latency; a
// soft memory limit still bounds the runner's heap. The returned function
// restores the collector and may be called more than once.
func pauseGC() func() {
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(512 << 20)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

// pct returns the q-percentile of xs, or an error when too few samples lie
// beyond it to report it.
func pct(what string, xs []float64, q float64) (quantile, error) {
	p := percentile(xs, q)
	if !p.ok() {
		return p, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d of %d", what, q*100, minBeyond, p.Beyond, p.N)
	}
	return p, nil
}

// latencies reports the p50, p90 and p99 latency of a phase as
// <name>_p50_ms and so on, and returns the p50. p99 is reported only with
// enough samples beyond it; p50 and p90 are required. Only the p50 is
// gated: on a 2-vCPU VM the tail is set by scheduler and VM stalls, and
// the p90 of predict-small moved by more than the bound between runs.
func (b *bench) latencies(name string, ss []sample) (quantile, error) {
	return b.summarize(name, latenciesMs(ss))
}

// summarize is latencies over durations already in ms.
func (b *bench) summarize(name string, lat []float64) (quantile, error) {
	p50, err := pct(name, lat, 0.5)
	if err != nil {
		return p50, err
	}
	p90, err := pct(name, lat, 0.9)
	if err != nil {
		return p50, err
	}
	b.note(name+"_p50_ms", p50.Value, "ms", p50.N)
	b.note(name+"_p90_ms", p90.Value, "ms", p90.N)
	if p99 := percentile(lat, 0.99); p99.ok() {
		b.note(name+"_p99_ms", p99.Value, "ms", p99.N)
	}
	return p50, nil
}

// windowRates counts successful completions per rateWindow over a
// closed-loop phase and returns the per-second rate of each whole window.
func windowRates(ss []sample, weight func(i int) int) []float64 {
	if len(ss) == 0 {
		return nil
	}
	start := ss[0].sent
	counts := map[int]int{}
	last := 0
	for i, s := range ss {
		if !s.ok {
			continue
		}
		w := int(s.done.Sub(start) / rateWindow)
		counts[w] += weight(i)
		last = max(last, w)
	}
	var out []float64
	for w := 0; w < last; w++ { // the last window is partial
		out = append(out, float64(counts[w])/rateWindow.Seconds())
	}
	return out
}

// check loads the artifacts in dir and checks every kept response with fn.
func (b *bench) check(dir string, ks []kept, fn func(*checker, body, []byte)) error {
	c, err := loadChecker(dir)
	if err != nil {
		return err
	}
	for _, k := range ks {
		fn(c, k.body, k.resp)
	}
	b.checks = append(b.checks, c)
	return nil
}

// predictSmall: open-loop /predict with 1- and 8-row bodies over two
// connections, in rounds of the reference rate, the router rate through
// faction-router and closed-loop capacity; then the other fixed rates and
// the rate ladder.
func (b *bench) predictSmall() error {
	in := makeInputs(b.seed)
	bodies := in.instanceBodies("/predict", 512, []int{1, 1, 1, 8})
	req := func(i int) []byte { return bodies[i%len(bodies)].req }
	srv, rt, dir, setups, err := b.setupRepeated(true)
	if err != nil {
		return err
	}
	resume := pauseGC()
	defer resume()
	secs := b.seconds.Seconds()
	after := func(frac float64) time.Time { return time.Now().Add(time.Duration(frac * secs * float64(time.Second))) }
	var mu sync.Mutex
	var ks []kept

	b.count(load{addr: srv.addr, conns: b.nproc, rate: refRate, until: time.Now().Add(300 * time.Millisecond), req: req}.run())
	var ref, viaRouter []sample
	var p50s, routerP50s, capRates []float64
	var refCPU float64 // faction-serve CPU seconds over the reference-rate phases
	for range rounds {
		c0, err := cpuSeconds(srv.cmd.Process.Pid)
		if err != nil {
			return err
		}
		ss := load{addr: srv.addr, conns: b.nproc, rate: refRate, until: after(0.07), req: req,
			keep: keeper(bodies, 20, &mu, &ks)}.run()
		b.count(ss)
		c1, err := cpuSeconds(srv.cmd.Process.Pid)
		if err != nil {
			return err
		}
		refCPU += c1 - c0
		ref = append(ref, ss...)
		p50, err := pct("predict", latenciesMs(ss), 0.5)
		if err != nil {
			return err
		}
		p50s = append(p50s, p50.Value)

		ss = load{addr: rt.addr, conns: b.nproc, rate: routerRate, until: after(0.05), req: req,
			keep: keeper(bodies, 20, &mu, &ks)}.run()
		b.count(ss)
		viaRouter = append(viaRouter, ss...)
		if p50, err = pct("router", latenciesMs(ss), 0.5); err != nil {
			return err
		}
		routerP50s = append(routerP50s, p50.Value)

		ss = load{addr: srv.addr, conns: b.nproc, until: after(0.04), req: req}.run()
		b.count(ss)
		capRates = append(capRates, windowRates(ss, func(int) int { return 1 })...)
		time.Sleep(50 * time.Millisecond) // let the server drain before the next phase
	}
	for _, r := range []float64{refRate / 4, routerRate} {
		ss := load{addr: srv.addr, conns: b.nproc, rate: r, until: after(0.05), req: req}.run()
		b.count(ss)
		if _, err := b.latencies(fmt.Sprintf("predict@%g", r), ss); err != nil {
			return err
		}
	}

	// The rate ladder: the highest rate whose p99 from due time stays within
	// latencyLimit without a growing backlog. On a small VM the p99 of a
	// probe is set by a few stalls, so the predicate is not monotone in the
	// rate; the result is printed, not gated. It runs last: its overloaded
	// probes leave the server with a backlog of garbage to collect.
	steps := ladder(500, 64000, 1.05)
	k := searchLadder(len(steps), func(i int) bool {
		ss := load{addr: srv.addr, conns: b.nproc, rate: steps[i], n: ladderN, req: req}.run()
		b.count(ss)
		time.Sleep(50 * time.Millisecond) // let the server drain before the next step
		return meetsLimit(ss, latencyLimit)
	})
	sloRate := 0.0
	if k >= 0 {
		sloRate = steps[k]
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}

	if _, err := b.latencies("predict", ref); err != nil {
		return err
	}
	if _, err := b.latencies("router", viaRouter); err != nil {
		return err
	}
	late, err := pct("generator lateness", latenessMs(ref), 0.99)
	if err != nil {
		return err
	}
	b.gate("setup_s", "setup_s", median(setups), "s", len(setups))
	b.gate("peak_rss_mb", "peak_rss_mb", rss, "MB", 0)
	b.gate("cpu_ms", "predict_cpu_ms", refCPU*1e3/float64(len(ref)), "ms", len(ref))
	b.note("predict_round_p50_ms", median(p50s), "ms", rounds)
	b.note("predict_closed_rps", median(capRates), "1/s", len(capRates))
	b.note("router_round_p50_ms", median(routerP50s), "ms", rounds)
	b.note("predict_max_rps", sloRate, "1/s", 0)
	b.note("bench.lateness_p99_ms", late.Value, "ms", late.N)
	resume()
	return b.check(dir, ks, (*checker).predict)
}

// scorePool: two closed-loop clients send /score with 256-row chunks of the
// shifted pools; sixteen consecutive chunks make one 4096-row task pool.
func (b *bench) scorePool() error {
	in := makeInputs(b.seed)
	bodies := in.instanceBodies("/score", 24, []int{256})
	req := func(i int) []byte { return bodies[i%len(bodies)].req }
	srv, _, dir, setups, err := b.setupRepeated(false)
	if err != nil {
		return err
	}
	resume := pauseGC()
	defer resume()
	var mu sync.Mutex
	var ks []kept
	b.count(load{addr: srv.addr, conns: b.nproc, until: time.Now().Add(300 * time.Millisecond), req: req}.run())
	c0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	ss := load{addr: srv.addr, conns: b.nproc, until: time.Now().Add(b.seconds), req: req,
		keep: keeper(bodies, 20, &mu, &ks)}.run()
	b.count(ss)
	c1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}

	if _, err := b.latencies("score", ss); err != nil {
		return err
	}
	// Requests are numbered in send order and the phase ends by time, so
	// the samples are requests 0..len-1 and every whole group of
	// poolChunks is a complete pool.
	var pools []float64
	for p := 0; (p+1)*poolChunks <= len(ss); p++ {
		first, last := ss[p*poolChunks].sent, ss[p*poolChunks].done
		for _, s := range ss[p*poolChunks : (p+1)*poolChunks] {
			if s.sent.Before(first) {
				first = s.sent
			}
			if s.done.After(last) {
				last = s.done
			}
		}
		pools = append(pools, float64(last.Sub(first))/1e6)
	}
	rows := windowRates(ss, func(i int) int { return len(bodies[i%len(bodies)].rows) })
	b.gate("setup_s", "setup_s", median(setups), "s", len(setups))
	b.gate("peak_rss_mb", "peak_rss_mb", rss, "MB", 0)
	b.gate("cpu_ms", "score_cpu_ms", (c1-c0)*1e3/float64(len(ss)), "ms", len(ss))
	b.note("score_rows_per_s", median(rows), "1/s", len(rows))
	b.note("pool_ms", median(pools), "ms", len(pools))
	resume()
	return b.check(dir, ks, (*checker).score)
}
