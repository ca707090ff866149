package main

import (
	"math/rand"
	"strconv"

	"faction/internal/data"
	"faction/internal/rngutil"
)

// Serving inputs come from the nysf stream. faction-serve -train fits its
// model on the first three tasks (the Bronx quarters); requests carry rows
// of tasks 8–15 (Manhattan and Queens), whose environments have shifted
// away from the training data.
const (
	streamName     = "nysf"
	trainSamples   = 800 // faction-serve's -samples default
	firstServeTask = 8
)

// inputs holds the shifted rows a workload's request bodies are made of,
// shuffled by the workload seed.
type inputs struct {
	dim  int
	rows [][]float64
	y, s []int
	rng  *rand.Rand
}

func makeInputs(seed int64) inputs {
	st := data.NYSF(data.StreamConfig{Seed: seed, SamplesPerTask: trainSamples})
	in := inputs{dim: st.Dim, rng: rngutil.Derive(seed, "e2ebench", "bodies")}
	for _, task := range st.Tasks[firstServeTask:] {
		for _, smp := range task.Pool.Samples {
			in.rows = append(in.rows, smp.X)
			in.y = append(in.y, smp.Y)
			in.s = append(in.s, smp.S)
		}
	}
	in.rng.Shuffle(len(in.rows), func(a, b int) {
		in.rows[a], in.rows[b] = in.rows[b], in.rows[a]
		in.y[a], in.y[b] = in.y[b], in.y[a]
		in.s[a], in.s[b] = in.s[b], in.s[a]
	})
	return in
}

// body is one request body together with the rows it carries, which the
// checker recomputes.
type body struct {
	rows [][]float64
	json []byte
	req  []byte // the whole HTTP request
}

// batch returns the k rows starting at off (wrapping around).
func (in inputs) batch(off, k int) (rows [][]float64, y, s []int) {
	for j := range k {
		i := (off + j) % len(in.rows)
		rows = append(rows, in.rows[i])
		y = append(y, in.y[i])
		s = append(s, in.s[i])
	}
	return rows, y, s
}

// instanceBodies returns n bodies for path (/predict or /score). Body i
// carries sizes[i%len(sizes)] rows, so every seed sends the same mix of
// sizes, and the workload rng orders the bodies.
func (in inputs) instanceBodies(path string, n int, sizes []int) []body {
	out := make([]body, n)
	perm := in.rng.Perm(n)
	off := 0
	for i := range out {
		k := sizes[perm[i]%len(sizes)]
		rows, _, _ := in.batch(off, k)
		off += k
		b := appendInstances([]byte(`{"instances":`), rows)
		b = append(b, '}')
		out[i] = body{rows: rows, json: b, req: rawRequest("POST", path, b)}
	}
	return out
}

// feedbackBodies returns n /feedback bodies of k labeled rows each.
func (in inputs) feedbackBodies(n, k int) []body {
	out := make([]body, n)
	for i := range out {
		rows, y, s := in.batch(i*k, k)
		b := appendInstances([]byte(`{"instances":`), rows)
		b = appendInts(append(b, `,"labels":`...), y)
		b = appendInts(append(b, `,"sensitive":`...), s)
		b = append(b, '}')
		out[i] = body{rows: rows, json: b, req: rawRequest("POST", "/feedback", b)}
	}
	return out
}

func appendInstances(b []byte, rows [][]float64) []byte {
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range r {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}
