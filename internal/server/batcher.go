package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"

	"faction/internal/batching"
	"faction/internal/gda"
	"faction/internal/mat"
)

// The micro-batcher (DESIGN.md §9) fuses concurrent /predict and /score
// requests into one forward pass and one density pass. Handlers decode and
// validate as usual, then enqueue their instance rows instead of computing;
// a single flusher drains the queue when BatchRows is reached or BatchDelay
// elapses, runs the fused pass under one read lock, and scatters per-request
// row ranges of the result back to the waiting handlers.
//
// Composition with the resilience stack:
//
//   - MaxInflight: a queued handler still holds its concurrency-limiter slot
//     (it blocks inside the handler), so queued work counts against the
//     shedding bound — the queue cannot grow past MaxInflight requests.
//   - Timeouts / cancellation: a late request is never enqueued, and a
//     queued handler also waits on its context, answering 503 or 499 when it
//     ends; the flusher drops items whose context ended before the flush, so
//     abandoned requests cost no compute.
//   - /refit: the whole fused pass runs under one s.mu read lock, so a model
//     swap (write lock) never lands mid-flush — every response in a batch
//     comes from one coherent (model, density, threshold) generation.
//   - Drain: Server.Close flushes the remaining queue (reason "drain") and
//     stops the flusher; handlers drained by http.Server shutdown get real
//     responses, and late submitters are answered 503.
//
// Determinism: the PR 2 kernels compute every per-row value independently of
// the rest of the batch (row-sharded matmul with fixed accumulation order,
// per-row density sums in sorted component order), and gda's SliceInto
// rescales each request's row range on that range's own maximum. Batched
// responses are therefore bit-identical to unbatched ones — pinned by
// TestBatchingBitIdentical.
//
// Memory discipline (DESIGN.md §10): the flusher checks intermediates out of
// a pooled arena (the gathered matrix, every forward activation), scores
// through the pooled gda.RawScores, and scatters each request's share
// directly into that request's own reqScratch — so a steady-state flush, like
// the unbatched handlers, performs no heap allocation.
//
// Scratch ownership handshake: a request's reqScratch travels inside its
// batchItem. Until the flusher delivers on the item's channel, the flusher
// owns the scratch and writes the response into it; delivery transfers
// ownership back to the handler, which writes the response and repools the
// scratch. A handler that gives up early (context cancelled while queued or
// mid-flush) must therefore ABANDON its scratch — never repool it — because
// the flusher may still write into it; the scratch is reclaimed by the GC
// instead. That is the one leak on the read path, and it only happens for
// requests that already paid a timeout.

// reqKind discriminates which endpoint a queued item belongs to.
type reqKind uint8

const (
	reqPredict reqKind = iota
	reqScore
)

// batchItem is one queued request: its scratch (carrying the decoded
// instances in sc.x and, after the flush, the response) plus the channel its
// handler waits on. It is embedded in the reqScratch so enqueueing allocates
// nothing.
type batchItem struct {
	kind reqKind
	sc   *reqScratch
	ctx  context.Context
	res  chan flushResult // buffered(1); the flusher delivers at most once
}

func (it *batchItem) Rows() int       { return it.sc.x.Rows }
func (it *batchItem) Cancelled() bool { return it.ctx.Err() != nil }

// deliver hands the item its result without ever blocking the flusher (the
// channel is buffered and only the flusher sends). After a successful deliver
// the flusher must not touch it.sc again — ownership has passed back to the
// handler.
func (it *batchItem) deliver(res flushResult) {
	select {
	case it.res <- res:
	default:
	}
}

// flushResult signals one request's completion: a nil err means the response
// has been built into the item's scratch (sc.predict / sc.score); a non-nil
// err means the fused pass failed and the handler should answer 500.
type flushResult struct {
	err error
}

// batcher glues the generic coalescer to the serving layer.
type batcher struct {
	s *Server
	c *batching.Coalescer
}

func newBatcher(s *Server) *batcher {
	b := &batcher{s: s}
	m := s.metrics
	b.c = batching.New(batching.Config{
		MaxRows:  s.cfg.BatchRows,
		MaxDelay: s.cfg.BatchDelay,
		Flush:    b.flush,
		Metrics: batching.Metrics{
			FlushRows:  func(rows int) { m.batchRows.Observe(float64(rows)) },
			Flushes:    func(r batching.Reason) { m.batchFlushes.With(string(r)).Inc() },
			QueueDelay: m.batchQueueSeconds.Observe,
			QueueDepth: func(rows int) { m.batchDepth.Set(float64(rows)) },
		},
	})
	return b
}

func (b *batcher) close() { b.c.Close() }

// flush runs the fused pass for one drained batch and scatters the results
// into each item's scratch. It executes on the coalescer's flusher goroutine;
// a panic here would kill the process (no HTTP recoverer wraps this
// goroutine), so recoverFlush converts it into per-request 500s.
func (b *batcher) flush(items []batching.Item, _ batching.Reason) {
	s := b.s
	defer b.recoverFlush(items)

	// Gather: concatenate every request's rows into an arena matrix. A
	// single-request batch reuses its decoded matrix as-is.
	arena := mat.GetArena()
	var x *mat.Dense
	if len(items) == 1 {
		x = &items[0].(*batchItem).sc.x
	} else {
		total := 0
		for _, qi := range items {
			total += qi.(*batchItem).sc.x.Rows
		}
		x = arena.Get(total, s.inputDim)
		off := 0
		for _, qi := range items {
			it := qi.(*batchItem)
			copy(x.Data[off*s.inputDim:], it.sc.x.Data)
			off += it.sc.x.Rows
		}
	}

	// Compute: one forward pass and at most one density pass for the whole
	// batch, under a single read lock so a /refit swap never straddles it.
	s.mu.RLock()
	logits, feats := s.cfg.Model.LogitsAndFeaturesScratch(x, arena)
	var raw *gda.RawScores
	if s.cfg.Density != nil {
		raw = s.cfg.Density.ScoreBatchRaw(feats)
	}
	hasOOD, thresh := s.hasOOD, s.oodThreshold
	lambda := s.cfg.Lambda
	s.mu.RUnlock()

	// Scatter: each request's row range is built into that request's own
	// scratch, rescaled (for /score) on the range's own maximum so the
	// response is bit-identical to an unbatched pass over just its rows.
	// SliceInto and the logG copy own their storage, so the pooled raw pass
	// and the arena can be released after the loop.
	off := 0
	for _, qi := range items {
		it := qi.(*batchItem)
		sc := it.sc
		lo, hi := off, off+sc.x.Rows
		off = hi
		switch it.kind {
		case reqPredict:
			var logG []float64
			if raw != nil {
				sc.logG = growFloats(sc.logG, hi-lo)
				copy(sc.logG, raw.LogG[lo:hi])
				logG = sc.logG
			}
			buildPredictInto(sc, logits, lo, hi, logG, hasOOD, thresh)
		case reqScore:
			raw.SliceInto(&sc.batch, lo, hi)
			buildScoreInto(sc, logits, lo, hi, &sc.batch, lambda)
		}
		it.deliver(flushResult{})
	}
	if raw != nil {
		raw.Release()
	}
	arena.Release()
}

// recoverFlush converts a flush panic into per-request 500s; it runs deferred
// on the flusher goroutine, where an unrecovered panic would kill the whole
// process.
func (b *batcher) recoverFlush(items []batching.Item) {
	p := recover()
	if p == nil {
		return
	}
	s := b.s
	s.metrics.panics.Inc()
	s.cfg.Logger.Error("panic in batched flush",
		slog.Any("panic", p),
		slog.String("stack", string(debug.Stack())))
	err := fmt.Errorf("internal error in batched pass")
	for _, qi := range items {
		qi.(*batchItem).deliver(flushResult{err: err})
	}
}

// serveBatched routes a decoded request through the micro-batcher and writes
// the scattered result. It takes over ownership of sc: on every exit path the
// scratch is either repooled (the flusher is provably done with it) or
// abandoned to the GC (the flusher may still touch it).
func (s *Server) serveBatched(w http.ResponseWriter, r *http.Request, kind reqKind, sc *reqScratch) {
	it := &sc.item
	it.kind, it.ctx = kind, r.Context()
	// Drain any stale result: a previous owner that abandoned this scratch
	// never consumed its delivery. (Abandoned scratches are not repooled, so
	// this is pure insurance, but it keeps the invariant local.)
	select {
	case <-it.res:
	default:
	}
	if err := s.batcher.c.Submit(it); err != nil {
		// Rejected before enqueue (drained for shutdown): still sole owner.
		httpError(w, r, http.StatusServiceUnavailable, "request not served: %v", err)
		putReqScratch(sc)
		return
	}
	select {
	case res := <-it.res:
		if res.err != nil {
			httpError(w, r, http.StatusInternalServerError, "%v", res.err)
			putReqScratch(sc)
			return
		}
		// Decision attribution runs handler-side (not in the flusher), so the
		// flush loop stays free of per-request metric work and the audit
		// record carries this request's own ID.
		s.observeDecisions(r, sc, kind, true)
		if kind == reqScore {
			s.feedDrift(sc.batch.LogG)
			writeJSON(w, r, &sc.score)
		} else {
			s.feedDrift(sc.predict.LogDensities)
			writeJSON(w, r, &sc.predict)
		}
		putReqScratch(sc)
	case <-r.Context().Done():
		// Deadline passed or client gone: 503 or 499. The flusher may still
		// be writing into sc, so abandon it (see the ownership handshake
		// above) — repooling here would be a use-after-free.
		expired(w)
	}
}
