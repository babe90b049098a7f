package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the closed loop's size: two callers that each wait for their
// reply, one per CPU of the two-CPU machines the benchmark was sized on.
const clients = 2

// minSamples is the smallest timed phase: p99 needs at least ten samples
// beyond it (nearest rank), so a phase shorter than this keeps running, up
// to maxStretch times its nominal length.
const (
	minSamples = 1000
	maxStretch = 3
)

// serverProc is a running wdptd.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
}

// startServer runs wdptd as a single node on an ephemeral loopback port:
// -query-log off, every other flag at its default. It returns once the
// server has printed its listen address.
func startServer(bin string, specs map[string]string, names []string) (*serverProc, error) {
	args := []string{"-listen", "127.0.0.1:0", "-query-log", "off"}
	for _, name := range names {
		args = append(args, "-dataset", name+"="+specs[name])
	}
	cmd := exec.Command(bin, args...)
	// Read only once the process has been waited for.
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// The server must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wdptd: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && strings.HasPrefix(line, "wdptd: serving") && i >= 0 {
				f := strings.Fields(line[i+4:])
				if len(f) > 0 {
					addr <- f[0]
					sent = true
				}
			}
		}
		if !sent {
			close(addr)
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-p.done
			return nil, fmt.Errorf("wdptd exited before serving: %s", stderr.String())
		}
		p.base = "http://" + a
		return p, nil
	case <-time.After(120 * time.Second):
		p.stop()
		return nil, fmt.Errorf("wdptd did not start within 120s: %s", stderr.String())
	}
}

// stop terminates the server (SIGTERM, then SIGKILL after 10s) and waits
// until the process has ended.
func (p *serverProc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// httpClient keeps one connection per client alive across requests.
func httpClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients * 2, DisableCompression: true},
	}
}

// post issues one request and returns status and body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches a GET endpoint's body.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// reload issues POST /admin/reload and checks the answer.
func reload(ctx context.Context, c *http.Client, base string) error {
	status, body, err := post(ctx, c, base+"/admin/reload", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !reloadOK(body) {
		return fmt.Errorf("reload: status %d, body %q", status, body)
	}
	return nil
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	attempted, ok int64
	wrong         int64                      // 2xx bodies that did not hold the expected answer
	errors        int64                      // transport errors and non-200 statuses
	drift         int64                      // bodies right in content but not byte-identical to the rendering
	latencies     map[string][]time.Duration // per request kind
	elapsed       time.Duration
	cpu           time.Duration // the generator's own CPU time over the phase
}

// loop drives the server with a closed loop of clients walking the stream
// from position *next on. It stops once minDur has passed and at least
// minOps operations completed, or at maxDur. Each response is checked
// against its expectation; bodies of the first digestN positions are
// hashed into digests.
type loop struct {
	w       *workload
	exp     []expectation
	base    string
	client  *http.Client
	next    atomic.Int64
	digests [][32]byte
	wrongs  []string // first few mismatch descriptions
	mu      sync.Mutex
}

// digestN is the number of leading stream positions whose bodies make up the
// run's body digest.
const digestN = 256

func (l *loop) run(ctx context.Context, minDur, maxDur time.Duration, minOps int64) phaseResult {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		res   = phaseResult{latencies: map[string][]time.Duration{}}
		count atomic.Int64
	)
	cpu0 := cpuTime()
	start := time.Now()
	soft, hard := start.Add(minDur), start.Add(maxDur)
	var last time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := phaseResult{latencies: map[string][]time.Duration{}}
			var end time.Time
			for ctx.Err() == nil {
				now := time.Now()
				if now.After(hard) || (now.After(soft) && count.Load() >= minOps) {
					break
				}
				pos := l.next.Add(1) - 1
				idx, r := l.w.at(pos)
				t0 := time.Now()
				var status int
				var body []byte
				var err error
				if r.kind == kindReload {
					status, body, err = post(ctx, l.client, l.base+"/admin/reload", nil)
				} else {
					status, body, err = post(ctx, l.client, l.base+"/v1/query", r.body)
				}
				end = time.Now()
				count.Add(1)
				local.attempted++
				local.latencies[r.kind] = append(local.latencies[r.kind], end.Sub(t0))
				switch {
				case err != nil || status != http.StatusOK:
					local.errors++
					l.noteWrong(fmt.Sprintf("position %d (%s): status %d, error %v", pos, r.kind, status, err))
				case r.kind == kindReload:
					if reloadOK(body) {
						local.ok++
					} else {
						local.wrong++
						l.noteWrong(fmt.Sprintf("position %d: bad reload body %q", pos, body))
					}
				default:
					sum := sha256.Sum256(body)
					if pos < digestN {
						l.digests[pos] = sum
					}
					switch {
					case sum == l.exp[idx].digest:
						local.ok++
					case sameAnswers(l.w, r, body):
						local.ok++
						local.drift++
					default:
						local.wrong++
						l.noteWrong(fmt.Sprintf("position %d (%s %s): wrong answer", pos, r.kind, r.query))
					}
				}
			}
			mu.Lock()
			res.attempted += local.attempted
			res.ok += local.ok
			res.wrong += local.wrong
			res.errors += local.errors
			res.drift += local.drift
			for k, ls := range local.latencies {
				res.latencies[k] = append(res.latencies[k], ls...)
			}
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if last.IsZero() {
		last = time.Now()
	}
	res.elapsed = last.Sub(start)
	res.cpu = cpuTime() - cpu0
	return res
}

// noteWrong keeps the first few failure descriptions for the report.
func (l *loop) noteWrong(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.wrongs) < 5 {
		l.wrongs = append(l.wrongs, s)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverCounters scrapes the JSON counter snapshot.
func serverCounters(ctx context.Context, c *http.Client, base string) (map[string]int64, error) {
	data, err := get(ctx, c, base+"/metrics.json")
	if err != nil {
		return nil, err
	}
	var snap map[string]int64
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return snap, nil
}

// admissionWait reads the admission-wait histogram's sum (seconds) and
// count from the Prometheus exposition.
func admissionWait(ctx context.Context, c *http.Client, base string) (sum float64, count float64, err error) {
	data, err := get(ctx, c, base+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "wdptd_admission_wait_seconds_sum":
			sum, err = strconv.ParseFloat(f[1], 64)
			found++
		case "wdptd_admission_wait_seconds_count":
			count, err = strconv.ParseFloat(f[1], 64)
			found++
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %s: %w", f[0], err)
		}
	}
	if found != 2 {
		return 0, 0, errors.New("/metrics has no wdptd_admission_wait_seconds sum and count")
	}
	return sum, count, nil
}
