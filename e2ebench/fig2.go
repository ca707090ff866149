package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"faction/internal/data"
	"faction/internal/experiments"
	"faction/internal/fairness"
	"faction/internal/obs"
	"faction/internal/online"
	"faction/internal/rngutil"
)

const (
	// canonicalSeed is the seed whose Fig. 2 means are committed, one file
	// per whitening kernel (see goldenFile).
	canonicalSeed = 1
	// streamReps is how many times fig2-offline generates its stream;
	// setup_s is the median.
	streamReps = 101
	minGrids   = 2
)

// whitenKernel names the whitened Mahalanobis kernel internal/mat selects in
// this process: the AVX2+FMA kernel's bits differ from the pure-Go kernel's,
// and FACTION's selection goes through gda scoring, so the Fig. 2 means are
// exact only per kernel. It mirrors mat's choice (amd64 without the noasm
// tag, on a CPU with AVX2 and FMA) from the CPU flags in /proc/cpuinfo.
func whitenKernel() string {
	if !asmBuilt {
		return runtime.GOARCH + "-purego"
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH + "-unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(k) != "flags" {
			continue
		}
		flags := strings.Fields(v)
		if slices.Contains(flags, "avx2") && slices.Contains(flags, "fma") {
			return runtime.GOARCH + "-avx2fma"
		}
		return runtime.GOARCH + "-purego"
	}
	return runtime.GOARCH + "-unknown"
}

// goldenFile is the committed canonical-seed Fig. 2 means for a kernel,
// relative to the checkout root.
func goldenFile(kernel string) string {
	return filepath.Join("e2ebench", "testdata", "fig2_ci_seed1."+kernel+".json")
}

// grid is one CI-scale Fig. 2 grid on nysf: the eight methods, one run each.
type grid struct {
	wall time.Duration
	runs []online.RunResult // in online.MethodNames order
	cfgs []online.Config
}

// gridStream generates the nysf stream the Fig. 2 grid derives from seed,
// exactly as experiments.RunFig2 does for run 0.
func gridStream(seed int64) (*data.Stream, int64, error) {
	runSeed := rngutil.DeriveSeed(seed, "grid", streamName, "0")
	st, err := data.ByName(streamName, experiments.ScaleCI.StreamConfig(runSeed))
	return st, runSeed, err
}

// runGrid runs every method of the grid through online.Run with at most
// workers protocol runs at once, deriving each run's configuration as
// experiments.RunFig2 does. With rec set, each run gets its own tracer and a
// bench.run span, and the spans land in the grid.
func runGrid(st *data.Stream, seed, runSeed int64, workers int, rec *recorder) (grid, error) {
	specs := online.Methods(runSeed)
	g := grid{runs: make([]online.RunResult, len(specs)), cfgs: make([]online.Config, len(specs))}
	errs := make([]error, len(specs))
	tracers := make([]*obs.Tracer, len(specs))
	bounds := make([][2]time.Time, len(specs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i, spec := range specs {
		cfg := experiments.ScaleCI.RunConfig(rngutil.DeriveSeed(seed, "run", streamName, spec.Name, "0"))
		if rec != nil {
			tracers[i] = obs.NewTracer(1 << 15)
			cfg.Tracer = tracers[i]
		}
		g.cfgs[i] = cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bounds[i][0] = time.Now()
			g.runs[i], errs[i] = online.Run(st, spec, cfg)
			bounds[i][1] = time.Now()
		}()
	}
	wg.Wait()
	g.wall = time.Since(start)
	for i, err := range errs {
		if err != nil {
			return g, fmt.Errorf("online.Run %s: %w", specs[i].Name, err)
		}
	}
	if rec != nil {
		for i, t := range tracers {
			if t.Dropped() > 0 {
				return g, fmt.Errorf("tracer of %s dropped %d spans", specs[i].Name, t.Dropped())
			}
			runID := rec.add("bench.run", 0, int64(i), bounds[i][0], bounds[i][1])
			// A parent is recorded before its children: sweep until every
			// span's parent has an id.
			ids := map[uint64]int{0: runID}
			ss := t.Spans()
			for progress := true; progress; {
				progress = false
				for _, s := range ss {
					p, ok := ids[s.Parent]
					if _, done := ids[s.ID]; done || !ok {
						continue
					}
					ids[s.ID] = rec.add(s.Name, p, int64(i), s.Start, s.Start.Add(s.Duration))
					progress = true
				}
			}
			if len(ids) != len(ss)+1 {
				return g, fmt.Errorf("tracer of %s: %d of %d spans have no recorded parent", specs[i].Name, len(ss)+1-len(ids), len(ss))
			}
		}
	}
	return g, nil
}

// means returns each method's mean report over tasks.
func (g grid) means() map[string]fairness.Report {
	out := map[string]fairness.Report{}
	for _, r := range g.runs {
		out[r.Method] = r.MeanReport()
	}
	return out
}

// checkBudgets reports every task that did not buy exactly its budget (plus
// the warm start on the first task).
func (g grid) checkBudgets() []string {
	var bad []string
	for i, r := range g.runs {
		cfg := g.cfgs[i]
		total := 0
		for ti, rec := range r.Records {
			want := cfg.Budget
			if ti == 0 {
				want += cfg.WarmStart
			}
			if rec.Queries != want {
				bad = append(bad, fmt.Sprintf("fig2 %s task %d: %d queries, budget %d", r.Method, rec.TaskID, rec.Queries, want))
			}
			total += rec.Queries
		}
		if total != r.TotalQueries {
			bad = append(bad, fmt.Sprintf("fig2 %s: tasks sum to %d queries, run reports %d", r.Method, total, r.TotalQueries))
		}
	}
	return bad
}

// compareMeans reports every method whose means differ from want.
func compareMeans(what string, got, want map[string]fairness.Report) []string {
	var bad []string
	if len(got) != len(want) {
		bad = append(bad, fmt.Sprintf("%s: %d methods, want %d", what, len(got), len(want)))
	}
	for m, w := range want {
		if g, ok := got[m]; !ok || g != w {
			bad = append(bad, fmt.Sprintf("%s: %s means %+v, want %+v", what, m, g, w))
		}
	}
	return bad
}

func readGolden(path string) (map[string]fairness.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]fairness.Report
	return out, json.Unmarshal(raw, &out)
}

// writeGolden runs the canonical-seed grid and writes its means to path: the
// committed reference of the fig2-offline checker for this process's kernel.
func writeGolden(path string) error {
	st, runSeed, err := gridStream(canonicalSeed)
	if err != nil {
		return err
	}
	g, err := runGrid(st, canonicalSeed, runSeed, runtime.NumCPU(), nil)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(g.means(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fig2Offline: the CI-scale Fig. 2 grid on nysf, in process, repeated until
// the measured time is used up.
func (b *bench) fig2Offline() error {
	var setups []float64
	var st *data.Stream
	var runSeed int64
	for range streamReps {
		t0 := time.Now()
		s, rs, err := gridStream(b.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st, runSeed = s, rs
	}

	// The peak resident set is taken per grid, returning freed memory to
	// the OS and resetting the high-water mark before each, and reported as
	// the median: a single process-wide peak depends on where collections
	// happened to fall.
	var grids []grid
	var rss, cpu []float64
	start := time.Now()
	for len(grids) < minGrids || time.Since(start) < b.seconds {
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return fmt.Errorf("resetting the peak resident set: %w", err)
		}
		c0 := selfCPUSeconds()
		g, err := runGrid(st, b.seed, runSeed, b.nproc, nil)
		cpu = append(cpu, selfCPUSeconds()-c0)
		b.attempted += len(g.runs)
		if err != nil {
			b.failed++
			return err
		}
		grids = append(grids, g)
		peak, err := peakRSSMB(os.Getpid())
		if err != nil {
			return err
		}
		rss = append(rss, peak)
	}

	var walls, taskMs []float64
	tasks := 0
	var busy time.Duration
	for _, g := range grids {
		walls = append(walls, float64(g.wall)/1e6)
		busy += g.wall
		for _, r := range g.runs {
			for _, rec := range r.Records {
				taskMs = append(taskMs, float64(rec.Elapsed)/1e6)
				tasks++
			}
		}
		b.bad = append(b.bad, g.checkBudgets()...)
		b.bad = append(b.bad, compareMeans("fig2 repeat", g.means(), grids[0].means())...)
	}
	// The canonical means are exact for one whitening kernel; with none
	// committed for the running kernel the comparison is skipped, and said.
	kernel := whitenKernel()
	want, err := readGolden(filepath.Join(b.root, goldenFile(kernel)))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		fmt.Printf("check fig2 canonical seed: no means committed for kernel %s, comparison skipped\n", kernel)
	case err != nil:
		return err
	default:
		canon := grids[0]
		if b.seed != canonicalSeed {
			cst, crs, err := gridStream(canonicalSeed)
			if err != nil {
				return err
			}
			if canon, err = runGrid(cst, canonicalSeed, crs, b.nproc, nil); err != nil {
				return err
			}
		}
		b.bad = append(b.bad, compareMeans("fig2 canonical seed", canon.means(), want)...)
		b.checked++
	}

	if _, err := b.summarize("task", taskMs); err != nil {
		return err
	}
	b.checked += len(grids)
	b.gate("setup_s", "setup_s", median(setups), "s", len(setups))
	b.gate("peak_rss_mb", "peak_rss_mb", median(rss), "MB", len(rss))
	b.gate("cpu_ms", "grid_cpu_ms", median(cpu)*1e3, "ms", len(cpu))
	b.note("tasks_per_s", float64(tasks)/busy.Seconds(), "1/s", tasks)
	b.note("fig2_ms", median(walls), "ms", len(walls))
	b.note("fig2_s", median(walls)/1e3, "s", len(walls))
	return nil
}
