package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
)

// checker recomputes sampled responses from the artifacts the server was
// started with, through the public nn, gda and mat APIs, and records every
// disagreement. JSON numbers round-trip float64 exactly, so served values
// must equal the recomputed ones bit for bit.
type checker struct {
	model   *nn.Classifier
	est     *gda.Estimator
	lambda  float64
	checked int
	bad     []string
}

// serverLambda is faction-serve's -lambda default, the λ of Eq. 6 in /score.
const serverLambda = 1.0

// loadChecker loads model.gob and density.gob from a server's work dir.
func loadChecker(dir string) (*checker, error) {
	model, err := nn.LoadClassifierFile(filepath.Join(dir, "model.gob"))
	if err != nil {
		return nil, err
	}
	est, err := gda.LoadFile(filepath.Join(dir, "density.gob"))
	if err != nil {
		return nil, err
	}
	return &checker{model: model, est: est, lambda: serverLambda}, nil
}

func (c *checker) failf(format string, args ...any) {
	c.bad = append(c.bad, fmt.Sprintf(format, args...))
}

func toDense(rows [][]float64) *mat.Dense {
	x := mat.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return x
}

// predict checks a /predict response: classes, probs and logDensities.
func (c *checker) predict(b body, resp []byte) {
	c.checked++
	var r struct {
		Classes      []int       `json:"classes"`
		Probs        [][]float64 `json:"probs"`
		LogDensities []float64   `json:"logDensities"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		c.failf("/predict: undecodable response: %v", err)
		return
	}
	n := len(b.rows)
	if len(r.Classes) != n || len(r.Probs) != n || len(r.LogDensities) != n {
		c.failf("/predict: %d rows sent, response has %d classes, %d probs, %d logDensities",
			n, len(r.Classes), len(r.Probs), len(r.LogDensities))
		return
	}
	logits, feats := c.model.LogitsAndFeatures(toDense(b.rows))
	logG := c.est.LogDensityBatch(feats)
	probs := make([]float64, logits.Cols)
	for i := range n {
		mat.Softmax(probs, logits.Row(i))
		if cls := mat.ArgMax(probs); r.Classes[i] != cls {
			c.failf("/predict row %d: class %d, recomputed %d", i, r.Classes[i], cls)
		}
		if len(r.Probs[i]) != len(probs) {
			c.failf("/predict row %d: %d probs, want %d", i, len(r.Probs[i]), len(probs))
			continue
		}
		for j, p := range probs {
			if r.Probs[i][j] != p {
				c.failf("/predict row %d: prob[%d] %v, recomputed %v", i, j, r.Probs[i][j], p)
			}
		}
		if r.LogDensities[i] != logG[i] {
			c.failf("/predict row %d: logDensity %v, recomputed %v", i, r.LogDensities[i], logG[i])
		}
	}
}

// score checks a /score response: u against Eq. 6 recomputed with
// ScoreBatch and softmax, and queryProb (Eq. 7) in [0, 1] with the batch's
// lowest u mapped to 1 and its highest to 0. A constant batch, whose
// queryProb the server and the offline runner define differently, is a
// known defect the checker does not assert.
func (c *checker) score(b body, resp []byte) {
	c.checked++
	var r struct {
		U         []float64 `json:"u"`
		QueryProb []float64 `json:"queryProb"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		c.failf("/score: undecodable response: %v", err)
		return
	}
	n := len(b.rows)
	if len(r.U) != n || len(r.QueryProb) != n {
		c.failf("/score: %d rows sent, response has %d u, %d queryProb", n, len(r.U), len(r.QueryProb))
		return
	}
	logits, feats := c.model.LogitsAndFeatures(toDense(b.rows))
	batch := c.est.ScoreBatch(feats)
	probs := make([]float64, logits.Cols)
	for i := range n {
		mat.Softmax(probs, logits.Row(i))
		u := batch.G[i]
		for k := 0; k < logits.Cols && k < len(batch.Delta[i]); k++ {
			u -= c.lambda * probs[k] * batch.Delta[i][k]
		}
		if r.U[i] != u {
			c.failf("/score row %d: u %v, recomputed %v", i, r.U[i], u)
		}
		if q := r.QueryProb[i]; !(q >= 0 && q <= 1) {
			c.failf("/score row %d: queryProb %v outside [0,1]", i, q)
		}
	}
	lo, hi := mat.MinMax(r.U)
	if lo == hi {
		return
	}
	for i, u := range r.U {
		if u == lo && r.QueryProb[i] != 1 {
			c.failf("/score row %d: lowest u has queryProb %v, want 1", i, r.QueryProb[i])
		}
		if u == hi && r.QueryProb[i] != 0 {
			c.failf("/score row %d: highest u has queryProb %v, want 0", i, r.QueryProb[i])
		}
	}
}

// kept is one response retained for checking.
type kept struct {
	body body
	resp []byte
}

// keeper retains every every-th response of a load phase. It is called from
// the sending goroutines.
func keeper(bodies []body, every int, mu *sync.Mutex, out *[]kept) func(i, status int, resp []byte) {
	return func(i, status int, resp []byte) {
		if i%every != 0 || status != 200 {
			return
		}
		k := kept{body: bodies[i%len(bodies)], resp: append([]byte(nil), resp...)}
		mu.Lock()
		*out = append(*out, k)
		mu.Unlock()
	}
}
