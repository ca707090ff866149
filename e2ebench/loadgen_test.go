package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, rate: 4000}
	for i, want := range []time.Duration{0, 250 * time.Microsecond, 500 * time.Microsecond} {
		if got := s.due(i).Sub(start); got != want {
			t.Errorf("due(%d) = start+%v, want start+%v", i, got, want)
		}
	}
	// Due times do not depend on when earlier requests were sent.
	if got := s.due(4000).Sub(start); got != time.Second {
		t.Errorf("due(4000) = start+%v, want start+1s", got)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(0, 0)
	s := sample{due: due, sent: due.Add(3 * time.Millisecond), done: due.Add(5 * time.Millisecond), ok: true}
	if s.lateness() != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", s.lateness())
	}
	if s.latency() != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms from due, not 2ms from send", s.latency())
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	p := percentile(mk(999), 0.99)
	if p.ok() {
		t.Errorf("p99 of 999 samples reported with %d beyond", p.Beyond)
	}
	p = percentile(mk(1000), 0.99)
	if !p.ok() || p.Beyond != 10 || p.Value != 990 || p.N != 1000 {
		t.Errorf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", p)
	}
	p = percentile(mk(20), 0.5)
	if !p.ok() || p.Value != 10 {
		t.Errorf("p50 of 1..20 = %+v, want value 10 with 10 beyond", p)
	}
	if percentile(mk(19), 0.5).ok() {
		t.Error("p50 of 19 samples has only 9 beyond but was reported")
	}
	if percentile(nil, 0.5).ok() {
		t.Error("percentile of no samples reported")
	}
}

func TestBacklogGrows(t *testing.T) {
	mk := func(late func(i int) time.Duration) []sample {
		ss := make([]sample, 100)
		for i := range ss {
			due := time.Unix(0, int64(i)*int64(time.Millisecond))
			ss[i] = sample{due: due, sent: due.Add(late(i)), done: due.Add(late(i) + 100*time.Microsecond), ok: true}
		}
		return ss
	}
	if backlogGrows(mk(func(int) time.Duration { return 50 * time.Microsecond }), time.Millisecond) {
		t.Error("steady lateness reported as a growing backlog")
	}
	if !backlogGrows(mk(func(i int) time.Duration { return time.Duration(i) * 100 * time.Microsecond }), time.Millisecond) {
		t.Error("lateness growing to 10ms not reported")
	}
	// One early stall the generator recovers from is not a backlog.
	if backlogGrows(mk(func(i int) time.Duration {
		if i == 3 {
			return 20 * time.Millisecond
		}
		return 0
	}), time.Millisecond) {
		t.Error("a recovered stall reported as a growing backlog")
	}
}

func TestMeetsLimit(t *testing.T) {
	ss := make([]sample, 1000)
	for i := range ss {
		due := time.Unix(0, int64(i)*int64(time.Millisecond))
		ss[i] = sample{due: due, sent: due, done: due.Add(200 * time.Microsecond), ok: true}
	}
	if !meetsLimit(ss, time.Millisecond) {
		t.Error("1000 requests at 0.2ms do not meet a 1ms p99")
	}
	if meetsLimit(ss[:999], time.Millisecond) {
		t.Error("999 samples cannot support a p99")
	}
	ss[5].ok = false
	if meetsLimit(ss, time.Millisecond) {
		t.Error("a failed request must miss the limit")
	}
	ss[5].ok = true
	for i := 0; i < 11; i++ {
		ss[i].done = ss[i].due.Add(2 * time.Millisecond)
	}
	if meetsLimit(ss, time.Millisecond) {
		t.Error("11 of 1000 requests over the limit still met it")
	}
}

func TestLadderStepsAtMostTenPercentApart(t *testing.T) {
	steps := ladder(500, 64000, 1.05)
	if steps[0] != 500 || steps[len(steps)-1] > 64000 || steps[len(steps)-1] < 64000/1.05 {
		t.Fatalf("ladder spans %v..%v, want 500..64000", steps[0], steps[len(steps)-1])
	}
	for i := 1; i < len(steps); i++ {
		if r := steps[i] / steps[i-1]; r > 1.10 || r <= 1 {
			t.Fatalf("steps %v and %v are %.3fx apart", steps[i-1], steps[i], r)
		}
	}
}

func TestSearchLadder(t *testing.T) {
	for knee := -1; knee < 20; knee++ {
		calls := 0
		got := searchLadder(20, func(i int) bool { calls++; return i <= knee })
		if got != knee {
			t.Errorf("knee %d: searchLadder = %d", knee, got)
		}
		if calls > 5 {
			t.Errorf("knee %d: %d probes for 20 steps", knee, calls)
		}
	}
}

func TestWindowRates(t *testing.T) {
	start := time.Unix(0, 0)
	var ss []sample
	for i := 0; i < 100; i++ { // one completion every 10ms, the last at 1s
		done := start.Add(time.Duration(i+1) * 10 * time.Millisecond)
		ss = append(ss, sample{due: start, sent: start, done: done, ok: true})
	}
	got := windowRates(ss, func(int) int { return 2 })
	if len(got) != 4 {
		t.Fatalf("windowRates over 1s = %v, want the 4 whole windows before the partial last one", got)
	}
	for _, r := range got[1:] {
		if r != 25*2/rateWindow.Seconds() {
			t.Errorf("window rate %v, want %v", r, 25*2/rateWindow.Seconds())
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "run", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50}, // overlaps a
		{Name: "c", ID: 4, Parent: 2, Start: 20, End: 25},
		{Name: "d", ID: 5, Parent: 1, Start: 90, End: 120}, // outlives the parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 5, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// TestOpenLoopTimesStallsFromDueTime drives a server that stalls one
// request: requests due during the stall are late, and their latency counts
// the wait from when they were due.
func TestOpenLoopTimesStallsFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(30 * time.Millisecond)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	req := rawRequest("POST", "/", []byte("{}"))
	ss := load{addr: strings.TrimPrefix(srv.URL, "http://"), conns: 1, rate: 1000, n: 40,
		req: func(int) []byte { return req }}.run()
	if len(ss) != 40 || failures(ss) != 0 {
		t.Fatalf("%d samples, %d failed", len(ss), failures(ss))
	}
	if l := ss[4].latency(); l < 30*time.Millisecond {
		t.Errorf("stalled request latency %v, want >= 30ms", l)
	}
	// Request 5 was due 1ms after request 4 but could only be sent once the
	// stall ended: about 29ms late, and its latency includes that wait.
	if late := ss[5].lateness(); late < 20*time.Millisecond {
		t.Errorf("request due during the stall was %v late, want >= 20ms", late)
	}
	if ss[5].latency() < ss[5].lateness() {
		t.Errorf("latency %v shorter than lateness %v", ss[5].latency(), ss[5].lateness())
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].due.Sub(ss[i-1].due) != time.Millisecond {
			t.Fatalf("due times %d and %d are %v apart, want 1ms", i-1, i, ss[i].due.Sub(ss[i-1].due))
		}
	}
}
