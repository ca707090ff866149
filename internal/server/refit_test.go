package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
)

// onlineDensityFixture builds an online-enabled server with a fitted density
// estimator over a tiny trained model (input dim 3, two classes).
func onlineDensityFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	n := 120
	x := make([][]float64, n)
	y := make([]int, n)
	sens := make([]int, n)
	fb := feedbackRequest{}
	for i := range x {
		y[i] = i % 2
		sens[i] = 1 - 2*((i/2)%2)
		x[i] = []float64{float64(y[i]) + 0.3*rng.NormFloat64(), rng.NormFloat64(), 0.5 * rng.NormFloat64()}
		fb.Instances, fb.Labels, fb.Sensitive = append(fb.Instances, x[i]), append(fb.Labels, y[i]), append(fb.Sensitive, sens[i])
	}
	model := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{8}, Seed: 21})
	xm := mat.FromRows(x)
	model.Train(xm, y, sens, nn.NewAdam(0.01), nn.TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	feats := model.Features(xm)
	est, err := gda.Fit(feats, y, sens, 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Online:            OnlineConfig{Enabled: true, Epochs: 2},
		Logger:            discardLogger(),
		Metrics:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Seed the feedback buffer with the training data so refits have
	// healthy material by default.
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
	return s, ts
}

func getInfo(t *testing.T, ts *httptest.Server) infoResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info infoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func predictProbs(t *testing.T, ts *httptest.Server, inst []float64) []float64 {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{inst}})
	if resp.StatusCode != 200 {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return pr.Probs[0]
}

// TestRefitRollbackOnValidationFailure injects a rejecting validator and
// checks the previous model keeps serving, bit-identically, and the failure
// is visible on /info.
func TestRefitRollbackOnValidationFailure(t *testing.T) {
	s, ts := resilientFixture(t, nil)
	s.validateCandidate = func(*nn.Classifier, nn.TrainStats) error {
		return errors.New("injected validation failure")
	}
	feedSamples(t, ts, 8)
	probe := []float64{0.4, -0.2, 0.9}
	before := predictProbs(t, ts, probe)

	resp, body := postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rejected refit: status %d (%s), want 422", resp.StatusCode, body)
	}
	info := getInfo(t, ts)
	if info.Refits != 0 || info.FailedRefits != 1 || info.Generation != 0 {
		t.Fatalf("info after failed refit = %+v", info)
	}
	if info.LastRefitError == "" || !strings.Contains(info.LastRefitError, "injected validation failure") {
		t.Fatalf("lastRefitError = %q", info.LastRefitError)
	}

	after := predictProbs(t, ts, probe)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("model changed despite rejected refit: %v != %v", before, after)
		}
	}

	// A later healthy refit recovers and clears the error.
	s.validateCandidate = s.defaultValidateCandidate
	resp, body = postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != 200 {
		t.Fatalf("recovery refit: %d %s", resp.StatusCode, body)
	}
	info = getInfo(t, ts)
	if info.Refits != 1 || info.Generation != 1 || info.LastRefitError != "" {
		t.Fatalf("info after recovery = %+v", info)
	}
}

// TestRefitRollbackOnNaNLoss drives the natural divergence path: feedback
// with astronomically large (but finite, so it passes input validation)
// features makes plain-SGD training overflow to a non-finite loss, and the
// candidate must be rejected. (Adam's second-moment normalization freezes
// instead of diverging, so the test pins the sgd refit optimizer.)
func TestRefitRollbackOnNaNLoss(t *testing.T) {
	_, ts := resilientFixture(t, func(cfg *Config) {
		cfg.Online.Optimizer = "sgd"
	})
	fb := feedbackRequest{}
	for i := 0; i < 8; i++ {
		fb.Instances = append(fb.Instances, []float64{1e200, -1e200, 1e200})
		fb.Labels = append(fb.Labels, i%2)
		fb.Sensitive = append(fb.Sensitive, 1-2*(i%2))
	}
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("diverged refit: status %d (%s), want 422", resp.StatusCode, body)
	}
	info := getInfo(t, ts)
	if info.FailedRefits != 1 || !strings.Contains(info.LastRefitError, "non-finite") {
		t.Fatalf("info after diverged refit = %+v", info)
	}
	// The poisoned candidate was discarded: prediction still answers with
	// finite probabilities.
	probs := predictProbs(t, ts, []float64{0.1, 0.2, 0.3})
	if probs[0] != probs[0] { // NaN check
		t.Fatal("NaN probabilities after rejected refit")
	}
}

// TestRefitAbandonedOnCancelledRequest drives handleRefit, behind the
// timeout middleware, with an already-cancelled request context — the state
// a /refit is in once its client has hung up. The candidate must be abandoned, never swapped in behind the
// caller's back, the request answered 499 like any other cancelled one, and
// the abandonment must be visible on /info.
func TestRefitAbandonedOnCancelledRequest(t *testing.T) {
	s, ts := resilientFixture(t, nil)
	feedSamples(t, ts, 8)
	probe := []float64{0.4, -0.2, 0.9}
	before := predictProbs(t, ts, probe)

	req := httptest.NewRequest("POST", "/refit", nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	h := timeout(time.Hour, discardLogger(), s.metrics.timeouts, s.metrics.cancels, nil)(http.HandlerFunc(s.handleRefit))
	h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled refit: status %d (%s), want 499", rec.Code, rec.Body)
	}

	info := getInfo(t, ts)
	if info.Refits != 0 || info.Generation != 0 {
		t.Fatalf("cancelled refit swapped the model in: %+v", info)
	}
	if info.FailedRefits != 1 || !strings.Contains(info.LastRefitError, "cancelled") {
		t.Fatalf("abandonment not recorded: %+v", info)
	}
	after := predictProbs(t, ts, probe)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("model changed despite cancelled refit: %v != %v", before, after)
		}
	}
}

// TestNewRejectsUnknownOptimizer checks the refit optimizer is validated at
// construction, not at the first /refit.
func TestNewRejectsUnknownOptimizer(t *testing.T) {
	model := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{8}, Seed: 7})
	_, err := New(Config{
		Model:  model,
		Online: OnlineConfig{Enabled: true, Optimizer: "rmsprop"},
	})
	if err == nil || !strings.Contains(err.Error(), `unknown optimizer "rmsprop"`) {
		t.Fatalf("New with bad optimizer: err = %v", err)
	}
}

// TestRefitRollbackOnDegenerateDensity replaces the buffer with one sample
// per mixture component, which forces every GDA component onto pooled
// statistics; the density refit must be rejected and the old estimator kept.
func TestRefitRollbackOnDegenerateDensity(t *testing.T) {
	s, ts := onlineDensityFixture(t)
	// Overwrite the healthy buffer with 4 samples: one per (y, s) pair.
	s.mu.Lock()
	s.buffer.Samples = s.buffer.Samples[:0]
	s.mu.Unlock()
	fb := feedbackRequest{
		Instances: [][]float64{{0.1, 0, 0}, {1.1, 0, 0}, {0.2, 1, 0}, {1.2, 1, 0}},
		Labels:    []int{0, 1, 0, 1},
		Sensitive: []int{1, 1, -1, -1},
	}
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("degenerate refit: status %d (%s), want 422", resp.StatusCode, body)
	}
	info := getInfo(t, ts)
	if info.FailedRefits != 1 || !strings.Contains(info.LastRefitError, "degenerate") {
		t.Fatalf("info = %+v", info)
	}
	// /score still works against the previous, healthy density.
	resp, body = postJSON(t, ts.URL+"/score", instancesRequest{Instances: [][]float64{{0.5, 0, 0}}})
	if resp.StatusCode != 200 {
		t.Fatalf("score after rejected density refit: %d %s", resp.StatusCode, body)
	}
}

// TestConcurrentPredictFeedbackRefitHammer drives all three endpoints from
// many goroutines at once; run under -race this is the serving-path
// linearizability check. No request may see a 5xx other than the sanctioned
// 409 (refit overlap) and 422 (rejected candidate).
func TestConcurrentPredictFeedbackRefitHammer(t *testing.T) {
	_, ts := onlineDensityFixture(t)
	client := &http.Client{}
	var wg sync.WaitGroup
	errs := make(chan string, 256)

	post := func(path string, payload any) (int, string) {
		raw, err := json.Marshal(payload)
		if err != nil {
			return 0, err.Error()
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, err.Error()
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, body := post("/predict", instancesRequest{
					Instances: [][]float64{{0.1 * float64(i), 0.2, float64(w)}},
				})
				if code != 200 {
					errs <- fmt.Sprintf("predict: %d %s", code, body)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				code, body := post("/feedback", feedbackRequest{
					Instances: [][]float64{{0.3, float64(w), 0.1 * float64(i)}},
					Labels:    []int{i % 2},
					Sensitive: []int{1 - 2*(i%2)},
				})
				if code != 200 {
					errs <- fmt.Sprintf("feedback: %d %s", code, body)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				code, body := post("/refit", map[string]any{})
				if code != 200 && code != http.StatusConflict && code != http.StatusUnprocessableEntity {
					errs <- fmt.Sprintf("refit: %d %s", code, body)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
