package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one spawned program binary.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error         // exit status, valid after done
}

// spawn starts bin with args, logging its standard error to logPath, and
// returns once the process has logged its listen address. The process runs
// with GOMAXPROCS=gomaxprocs and is killed if the runner dies.
func spawn(name, bin string, args []string, dir, logPath string, gomaxprocs int) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Copy every log line to the log file and report the first listen
		// address; the pipe closes when the process exits.
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Bytes()
			fmt.Fprintf(logf, "%s\n", line)
			if sent {
				continue
			}
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(line, &rec) == nil && strings.HasSuffix(rec.Msg, " listening") && rec.Addr != "" {
				addrCh <- rec.Addr
				sent = true
			}
		}
		_, _ = io.Copy(logf, stderr) // drain after a scanner error so the process never blocks on a full pipe
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening (%v); log in %s", name, p.err, logPath)
	case <-time.After(120 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 120s; log in %s", name, logPath)
	}
}

// url returns the base URL of the process.
func (p *proc) url() string { return "http://" + p.addr }

// waitReady polls GET /readyz until it answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	c := http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.url() + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited while waiting for /readyz: %v", p.name, p.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within %v", p.name, timeout)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every architecture Linux runs Go on.
const clockTicks = 100

// cpuSeconds returns the user plus system CPU time process pid has used,
// its exited threads included, from /proc/<pid>/stat. The kernel scales
// these ticks to the scheduler's exact runtime, which leaves out time the
// process waited for a CPU and, in a VM, time the hypervisor stole.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start with the
	// state (field 3), so utime and stime (fields 14 and 15) are 11 and 12.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// selfCPUSeconds returns the user plus system CPU time of the runner.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited after 10 s. It returns once the process has been waited for.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // the process may have just exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// getJSON decodes the JSON body of GET url into v.
func getJSON(url string, v any) error {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the Prometheus text exposition at url+"/metrics" into a map
// from series (name plus label set, as exposed) to value.
func scrape(url string) (map[string]float64, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
