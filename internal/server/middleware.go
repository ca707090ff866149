package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"faction/internal/obs"
)

// The middleware stack keeps one bad request — a panic, a slow client, an
// oversized body, a traffic spike — from taking the whole deployment down,
// and measures every request on the way through. Handler() wraps the route
// mux as
//
//	requestID → instrument → recoverer → limitConcurrency → timeout → maxBytes → mux
//
// with /healthz, /readyz, /metrics and /debug/pprof bypassing the limiter and
// timeout so probes and scrapes keep answering while the service sheds load.
// Every layer runs on the connection's own goroutine: timeout only attaches a
// deadline that handlers check, so a panic at any point unwinds to recoverer.
// instrument sits outside the recoverer so panics, sheds and timeouts are all
// counted with the status code the client actually received.

type middleware func(http.Handler) http.Handler

// chain wraps h with mws, outermost first.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

type ctxKey int

const (
	requestIDKey ctxKey = 0
	loggerKey    ctxKey = 1
)

var (
	reqCounter atomic.Uint64
	reqPrefix  = func() string {
		var b [3]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "req"
		}
		return hex.EncodeToString(b[:])
	}()
)

// requestIDFrom returns the request's ID, or "" outside the middleware.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ctxLogger returns the server logger the instrument middleware stashed in
// the request context, so free functions like writeJSON and httpError can log
// without threading a *Server through; slog.Default() outside the middleware.
func ctxLogger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return l
	}
	return slog.Default()
}

// reqLogger scopes a logger to the request: every record it emits carries the
// request ID, so a client-quoted ID greps straight to the structured log
// lines of its request.
func reqLogger(base *slog.Logger, ctx context.Context) *slog.Logger {
	if id := requestIDFrom(ctx); id != "" {
		return base.With(slog.String("requestId", id))
	}
	return base
}

// requestID assigns every request a unique ID, echoed in the X-Request-ID
// response header and embedded in JSON error bodies so a client-reported
// failure can be matched to the server log line.
func requestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%s-%d", reqPrefix, reqCounter.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// recoverer converts a handler panic into a 500 response, a panics-counter
// tick and a structured log record carrying the stack; the process keeps
// serving. http.ErrAbortHandler (the sanctioned "hang up on this client"
// panic) is re-raised for net/http to handle.
func recoverer(logger *slog.Logger, panics *obs.Counter) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				panics.Inc()
				reqLogger(logger, r.Context()).Error("panic serving request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", p),
					slog.String("stack", string(debug.Stack())))
				httpError(w, r, http.StatusInternalServerError, "internal error")
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// limitConcurrency admits at most n requests at once and sheds the rest
// immediately with 429 + Retry-After — bounded memory under a spike, instead
// of an unbounded goroutine queue that melts the process. Every shed request
// ticks the shed counter.
func limitConcurrency(n int, shed *obs.Counter) middleware {
	sem := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				shed.Inc()
				w.Header().Set("Retry-After", "1")
				httpError(w, r, http.StatusTooManyRequests, "server at capacity (%d in-flight requests)", n)
			}
		})
	}
}

// maxBytes caps request bodies; a client streaming an oversized body gets a
// 400 from the JSON decoder when the cap trips mid-read.
func maxBytes(n int64) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// statusClientClosedRequest is the nginx-convention 499: the client went
// away before the handler finished. It is never seen by that client (it is
// gone) — its job is to keep the instrument middleware's per-route counters
// truthful without landing in the 5xx bucket the error-rate SLO burns on.
const statusClientClosedRequest = 499

// timeout gives each request a deadline d from its arrival. The handler runs
// on the connection goroutine and checks the deadline itself (expired) after
// decoding, before compute, while queued and in /refit; the response is the
// last check (deadlineWriter). The connection read deadline is set to the
// same instant, so a stalled body read fails there and frees the request's
// MaxInflight slot. The trailing counter is unused: panics unwind to
// recoverer, before the deadline or after it.
func timeout(d time.Duration, logger *slog.Logger, timeouts, cancels, _ *obs.Counter) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			dl, _ := ctx.Deadline()
			_ = http.NewResponseController(w).SetReadDeadline(dl) // unsupported off a real connection
			r = r.WithContext(ctx)
			dw := &deadlineWriter{ResponseWriter: w, r: r, logger: logger, timeouts: timeouts, cancels: cancels}
			next.ServeHTTP(dw, r)
			dw.check() // a handler that stopped at its deadline returned unanswered
		})
	}
}

// deadlineWriter makes the response the deadline's last check: the first
// WriteHeader or Write of a request whose context has ended is replaced by
// its 503 or 499, and the handler's later writes fail.
type deadlineWriter struct {
	http.ResponseWriter
	r                 *http.Request
	logger            *slog.Logger
	timeouts, cancels *obs.Counter
	started, cut      bool // the response has begun; it is the deadline's answer
}

// check answers a request that has ended before its response began, and
// reports whether the request was answered so. Past the deadline it is 503
// and the timeouts counter; with the client gone, 499 and the cancels counter
// (a disconnect is no server fault and must not burn the error-rate SLO). The
// deadline is judged by the clock, not by ctx.Err(): a connection read
// deadline that fires first makes net/http cancel the request context as if
// the client had hung up, and that request still timed out.
func (w *deadlineWriter) check() bool {
	if w.started {
		return w.cut
	}
	ctx := w.r.Context()
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		w.timeouts.Inc()
		httpError(w.ResponseWriter, w.r, http.StatusServiceUnavailable, "request deadline exceeded")
	} else if ctx.Err() != nil {
		w.cancels.Inc()
		// The connection is gone; the write is for the status recorder, not
		// the wire.
		httpError(w.ResponseWriter, w.r, statusClientClosedRequest, "client closed request")
		reqLogger(w.logger, ctx).Debug("client disconnected before response",
			slog.String("method", w.r.Method), slog.String("path", w.r.URL.Path))
	} else {
		return false
	}
	w.started, w.cut = true, true
	return true
}

func (w *deadlineWriter) WriteHeader(code int) {
	if !w.check() {
		w.started = true
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *deadlineWriter) Write(b []byte) (int, error) {
	if w.check() {
		return 0, http.ErrHandlerTimeout
	}
	w.started = true
	return w.ResponseWriter.Write(b)
}

// expired is the handlers' deadline check: it reports whether the request has
// ended and was answered 503 or 499, and the handler then returns without
// writing. Without the timeout middleware it is always false.
func expired(w http.ResponseWriter) bool {
	dw, ok := w.(*deadlineWriter)
	return ok && dw.check()
}

// commitResponse exempts the rest of w's response from the deadline, once the
// request has a side effect the client must hear about: a 503 in place of
// that answer would be retried and the effect applied twice.
func commitResponse(w http.ResponseWriter) {
	if dw, ok := w.(*deadlineWriter); ok {
		dw.started = true
	}
}
