// Command e2ebench is the repository's end-to-end benchmark. For one named
// workload it drives the real faction-serve and faction-router binaries over
// loopback TCP, or runs the offline Fig. 2 protocol in process, and checks a
// sample of every output against a recomputation through public APIs:
//
//	bash e2ebench/run.sh --workload predict-small --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binaries and this runner from the checkout into
// .bench_build, then runs it from the checkout root. With --trace 0 the last
// line of standard output is a JSON object carrying the end-to-end metrics
// of BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
// separate traced pass. Any output mismatch marks the run incorrect and
// exits 1. interactions.json names what each metric means on each workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"faction/internal/mat"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is one metric of the detailed report, under the name the workload
// gives it, with the sample count behind it.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// fingerprint describes the machine and the build a report came from.
type fingerprint struct {
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	RunnerGOMAXPROCS int    `json:"gomaxprocsRunner"`
	ServerGOMAXPROCS int    `json:"gomaxprocsServers"`
	MatParallelism   int    `json:"matParallelism"`
	WhitenKernel     string `json:"whitenKernel"`
	GoVersion        string `json:"go"`
	Commit           string `json:"commit"`
	SourceSHA256     string `json:"sourceSha256"`
}

// bench is one benchmark invocation.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string // checkout root, the working directory
	bin      string // directory holding the built faction-serve and faction-router
	work     string // working directory of this run's servers, removed at exit
	nproc    int

	mu    sync.Mutex
	procs []*proc

	gated     map[string]metric
	detail    []named
	attempted int
	failed    int
	checks    []*checker
	checked   int      // outputs checked outside a checker
	bad       []string // mismatches found outside a checker
	rec       *recorder
}

var workloads = map[string]func(*bench) error{
	"predict-small": (*bench).predictSmall,
	"score-pool":    (*bench).scorePool,
	"fig2-offline":  (*bench).fig2Offline,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: predict-small, score-pool or fig2-offline")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
		golden   = flag.Bool("write-golden", false, "write the canonical-seed Fig. 2 means for this process's whitening kernel under e2ebench/testdata and exit")
	)
	flag.Parse()
	if *golden {
		if err := writeGolden(goldenFile(whitenKernel())); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		root: root, bin: filepath.Join(root, ".bench_build", "bin"), nproc: runtime.NumCPU(), gated: map[string]metric{},
	}
	b.work = filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	defer b.stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		b.stopAll()
		os.RemoveAll(b.work)
		os.Exit(1)
	}()

	fp := b.fingerprint()
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("machine cpu=%q nproc=%d gomaxprocs.runner=%d gomaxprocs.servers=%d mat.parallelism=%d whiten.kernel=%s go=%s commit=%s source=%s\n",
		fp.CPU, fp.NProc, fp.RunnerGOMAXPROCS, fp.ServerGOMAXPROCS, fp.MatParallelism, fp.WhitenKernel, fp.GoVersion, fp.Commit, fp.SourceSHA256[:16])

	if *trace == 1 {
		b.rec = newRecorder()
		err = b.layers()
	} else {
		err = fn(b)
	}
	b.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}

	res := result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: b.gated}
	checked := b.checked
	mismatches := append([]string(nil), b.bad...)
	for _, c := range b.checks {
		checked += c.checked
		mismatches = append(mismatches, c.bad...)
	}
	res.Correct = len(mismatches) == 0
	for _, n := range b.detail {
		if n.N > 0 {
			fmt.Printf("metric %-28s %14.6g %-6s n=%d\n", n.Name, n.Value, n.Unit, n.N)
		} else {
			fmt.Printf("metric %-28s %14.6g %s\n", n.Name, n.Value, n.Unit)
		}
	}
	fmt.Printf("check responses=%d mismatches=%d attempted=%d failed=%d error_rate=%.6g\n",
		checked, len(mismatches), b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	for i, m := range mismatches {
		if i == 20 {
			fmt.Printf("mismatch ... %d more\n", len(mismatches)-20)
			break
		}
		fmt.Printf("mismatch %s\n", m)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: no operation was attempted")
		return 1
	}
	b.writeReport(fp, *trace, res, mismatches)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func workloadNames() []string {
	return sortedKeys(workloads)
}

// gate sets an end-to-end (or, in a traced run, per-layer) metric of the
// result line and also lists it in the detailed report under alias.
func (b *bench) gate(name, alias string, v float64, unit string, n int) {
	b.gated[name] = metric{Value: v, Unit: unit}
	if alias != "" {
		b.note(alias, v, unit, n)
	}
}

// badf records a mismatch found outside a checker.
func (b *bench) badf(format string, args ...any) {
	b.bad = append(b.bad, fmt.Sprintf(format, args...))
}

// note adds a metric to the detailed report only.
func (b *bench) note(name string, v float64, unit string, n int) {
	b.detail = append(b.detail, named{Name: name, Value: v, Unit: unit, N: n})
}

// count adds finished operations to the attempted and failed totals.
func (b *bench) count(ss []sample) {
	b.attempted += len(ss)
	b.failed += failures(ss)
}

// track registers a spawned process for cleanup.
func (b *bench) track(p *proc) {
	b.mu.Lock()
	b.procs = append(b.procs, p)
	b.mu.Unlock()
}

// stopAll stops every process the run started and waits for each.
func (b *bench) stopAll() {
	b.mu.Lock()
	ps := b.procs
	b.procs = nil
	b.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// fingerprint records the machine and build.
func (b *bench) fingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: b.nproc, RunnerGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: b.nproc, MatParallelism: mat.Parallelism(), WhitenKernel: whitenKernel(),
		GoVersion: runtime.Version(), Commit: gitCommit(b.root), SourceSHA256: sourceDigest(b.root),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// gitCommit resolves HEAD from .git without running git; "none" outside a
// repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source, assembly file and go.mod under root,
// so a report identifies the code it measured even outside a repository.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		ext := filepath.Ext(path)
		if d.IsDir() || (ext != ".go" && ext != ".s" && d.Name() != "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// writeReport writes the detailed report (and, in a traced run, the spans)
// under .bench_build/reports.
func (b *bench) writeReport(fp fingerprint, trace int, res result, mismatches []string) {
	dir := filepath.Join(b.root, ".bench_build", "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: report:", err)
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, trace))
	rep := struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		Seconds    float64     `json:"seconds"`
		Machine    fingerprint `json:"machine"`
		Result     result      `json:"result"`
		Metrics    []named     `json:"metrics"`
		Mismatches []string    `json:"mismatches,omitempty"`
	}{b.workload, b.seed, b.seconds.Seconds(), fp, res, b.detail, mismatches}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".json", raw, 0o644)
	}
	if err == nil && b.rec != nil {
		err = b.rec.writeJSONL(base + ".spans.jsonl")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: report:", err)
		return
	}
	fmt.Printf("report %s.json\n", base)
}
