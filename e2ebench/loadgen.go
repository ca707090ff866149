package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is the fewest samples that must lie above a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile is a nearest-rank percentile together with the sample behind it.
type quantile struct {
	Q      float64
	Value  float64
	N      int
	Beyond int // samples ranked above Value
}

// ok reports whether enough samples lie beyond the percentile to report it.
func (q quantile) ok() bool { return q.N > 0 && q.Beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile of xs, 0 < q <= 1.
func percentile(xs []float64, q float64) quantile {
	out := quantile{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q·n = 990 from rounding up to rank 991 when 0.99
	// is not exact in binary.
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	rank = min(max(rank, 1), len(s))
	out.Value = s[rank-1]
	out.Beyond = len(s) - rank
	return out
}

// median is the 0.5 nearest-rank percentile of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return percentile(xs, 0.5).Value
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i/rate, whatever happened to the requests before it.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(time.Second) / s.rate))
}

// sample is one request. Open-loop requests are timed from when they were
// due; closed-loop requests are due when they are sent.
type sample struct {
	due, sent, done time.Time
	ok              bool
}

func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }
func (s sample) latency() time.Duration  { return s.done.Sub(s.due) }

// latenciesMs returns the latency of every successful sample in ms.
func latenciesMs(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// latenessMs returns how late the generator sent each sample, in ms.
func latenessMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lateness()) / 1e6
	}
	return out
}

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// backlogGrows reports whether the generator fell behind its schedule and
// stayed behind: the median lateness of the final quarter of the samples
// (in schedule order) exceeds limit.
func backlogGrows(ss []sample, limit time.Duration) bool {
	if len(ss) < 4 {
		return false
	}
	tail := latenessMs(ss[len(ss)-len(ss)/4:])
	return median(tail) > float64(limit)/1e6
}

// meetsLimit is the rate-ladder predicate: every request succeeded, the p99
// latency from due time is within limit with enough samples to say so, and
// the backlog did not grow.
func meetsLimit(ss []sample, limit time.Duration) bool {
	if failures(ss) > 0 {
		return false
	}
	p := percentile(latenciesMs(ss), 0.99)
	return p.ok() && p.Value <= float64(limit)/1e6 && !backlogGrows(ss, limit)
}

// ladder returns the geometric rates lo, lo·ratio, lo·ratio², … up to hi.
func ladder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		out = append(out, r)
	}
	return out
}

// searchLadder returns the highest step index in [0, n) for which pass
// holds, assuming pass is true below a knee and false above it, by
// bisection; -1 when even step 0 fails.
func searchLadder(n int, pass func(i int) bool) int {
	lo, hi := -1, n // pass(lo) known true (or lo = -1), pass(hi) known false (or hi = n)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// sleepSlack is how much earlier than due the generator wakes from its
// sleep; it spins the rest.
const sleepSlack = 50 * time.Microsecond

// sleeper waits on a timerfd through Go's network poller. time.Sleep
// rounds short waits up to about a millisecond, and a blocking nanosleep
// keeps the goroutine's P for the whole sleep, so a goroutine readied onto
// that P (a closed-loop client next to an open-loop reader) waits for the
// sleep to end. A timerfd wakes within tens of microseconds and gives the P
// up while it waits.
type sleeper struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// until waits until t; a nil sleeper uses time.Sleep.
func (s *sleeper) until(t time.Time) {
	if s == nil {
		time.Sleep(time.Until(t))
		return
	}
	if d := time.Until(t) - sleepSlack; d > 0 {
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // it_interval, it_value
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 || s.readExpiry() != nil {
			time.Sleep(time.Until(t)) // coarse, but the lateness it causes is measured
		}
	}
	for time.Now().Before(t) {
	}
}

func (s *sleeper) readExpiry() error {
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }

// httpConn is one keep-alive HTTP/1.1 connection that sends prebuilt request
// bytes, so the generator spends no time building requests.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

// do sends req and returns the status and the body, which stays valid until
// the next call. Any transport error closes the connection; the next call
// redials.
func (h *httpConn) do(req []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	if err := h.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		h.close()
		return 0, nil, err
	}
	if _, err := h.c.Write(req); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		h.close()
		return 0, nil, err
	}
	if resp.Close {
		h.close()
	}
	return resp.StatusCode, h.body.Bytes(), nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c, h.br = nil, nil
	}
}

// rawRequest builds the bytes of an HTTP/1.1 request.
func rawRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", method, path, len(body))
	b.Write(body)
	return b.Bytes()
}

// load describes one load phase against one address.
type load struct {
	addr  string
	conns int
	// rate > 0 makes the phase open-loop at that many requests per second;
	// 0 makes it closed-loop, each connection sending its next request when
	// the previous one completes.
	rate float64
	// n caps the requests sent; until, when non-zero, ends the phase at that
	// time.
	n     int
	until time.Time
	req   func(i int) []byte
	// keep, when non-nil, sees every completed response on the sending
	// goroutine; it must copy body to retain it.
	keep func(i, status int, body []byte)
}

// run executes the phase and returns its samples in request order. Each
// connection is driven by its own goroutine; together they take request
// indices from one counter.
func (l load) run() []sample {
	var next atomic.Int64
	sched := schedule{start: time.Now().Add(time.Millisecond), rate: l.rate}
	type indexed struct {
		i int
		s sample
	}
	parts := make([][]indexed, l.conns)
	var wg sync.WaitGroup
	for c := range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &httpConn{addr: l.addr}
			defer hc.close()
			var sl *sleeper
			if l.rate > 0 {
				// Without a timerfd the generator falls back to time.Sleep;
				// the lateness that adds is measured and reported.
				if s, err := newSleeper(); err == nil {
					sl = s
					defer sl.close()
				}
			}
			for {
				i := int(next.Add(1) - 1)
				if l.n > 0 && i >= l.n {
					return
				}
				var s sample
				if l.rate > 0 {
					s.due = sched.due(i)
					if !l.until.IsZero() && s.due.After(l.until) {
						return
					}
					sl.until(s.due)
					s.sent = time.Now()
				} else {
					s.sent = time.Now()
					if !l.until.IsZero() && s.sent.After(l.until) {
						return
					}
					s.due = s.sent
				}
				status, body, err := hc.do(l.req(i))
				s.done = time.Now()
				s.ok = err == nil && status == http.StatusOK
				if l.keep != nil && err == nil {
					l.keep(i, status, body)
				}
				parts[c] = append(parts[c], indexed{i, s})
			}
		}()
	}
	wg.Wait()
	var all []indexed
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	out := make([]sample, len(all))
	for k, x := range all {
		out[k] = x.s
	}
	return out
}
