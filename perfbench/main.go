// Command perfbench is the wdptd benchmark. It generates a seeded workload
// (dataset files plus a request stream), starts the tree's wdptd on them as
// a single node, drives it over loopback HTTP with a closed loop of two
// clients, checks every answer against answers computed straight from the
// generated data, and prints the end-to-end metrics. With -trace 1 it also
// replays a sample of the same requests in-process, layer by layer, and
// prints the per-layer metrics instead. See README.md.
//
//	bash perfbench/run.sh --workload enumerate --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReloads is the number of timed POST /admin/reload calls behind
// setup_s; their median is reported.
const setupReloads = 15

// warmup is the untimed closed-loop phase before the timed one: it opens
// the connections and fills the result cache where a workload repeats keys.
const warmup = 2 * time.Second

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "enumerate", "workload: enumerate, lookup or repeat")
	seed := fs.Int64("seed", 1, "seed of the generated datasets and request stream")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	bin := fs.String("wdptd", "", "wdptd binary to benchmark")
	outDir := fs.String("out", ".bench_build", "directory for generated files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -wdptd, -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}
	if err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *outDir, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench runs one benchmark run and prints its report; it fails on a wrong
// answer after printing it.
func bench(name string, seed int64, dur time.Duration, traced bool, bin, outDir string, stdout, stderr io.Writer) error {
	t0 := time.Now()
	progress := func(what string) { fmt.Fprintf(stderr, "perfbench: %-28s at %6.2fs\n", what, time.Since(t0).Seconds()) }
	w, err := buildWorkload(name, seed, fullSizes)
	if err != nil {
		return err
	}
	progress("workload generated")
	work := filepath.Join(outDir, fmt.Sprintf("work-%s-s%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(work) }()
	specs, err := w.writeFiles(work)
	if err != nil {
		return err
	}
	exp := expectAll(w)
	progress("expected answers computed")

	srv, err := startServer(bin, specs, w.datasetNames())
	if err != nil {
		return err
	}
	defer srv.stop()
	progress("wdptd serving")
	ctx := context.Background()
	c := httpClient()
	defer c.CloseIdleConnections()

	setup := make([]float64, setupReloads)
	for i := range setup {
		t0 := time.Now()
		if err := reload(ctx, c, srv.base); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup[i] = time.Since(t0).Seconds()
	}
	progress("set-up reloads done")
	l := &loop{w: w, exp: exp, base: srv.base, client: c, digests: make([][32]byte, digestN)}
	warm := l.run(ctx, warmup, warmup, 0)
	before, err := serverCounters(ctx, c, srv.base)
	if err != nil {
		return err
	}
	waitSum0, waitN0, err := admissionWait(ctx, c, srv.base)
	if err != nil {
		return err
	}
	progress("warm-up done")
	timed := l.run(ctx, dur, maxStretch*dur, minSamples)
	progress("timed phase done")
	after, err := serverCounters(ctx, c, srv.base)
	if err != nil {
		return err
	}
	waitSum1, waitN1, err := admissionWait(ctx, c, srv.base)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	srv.stop()
	var all []time.Duration
	for _, ls := range timed.latencies {
		all = append(all, ls...)
	}
	if err := checkTail(len(all), 0.99); err != nil {
		return err
	}

	lat := millis(all)
	failed := timed.attempted - timed.ok
	var metrics []metric
	var replayFailures []string
	if traced {
		hits := float64(after["server.cache_hits"] - before["server.cache_hits"])
		misses := float64(after["server.cache_misses"] - before["server.cache_misses"])
		metrics = []metric{
			{"server.cache_hit_ratio", ratio(hits, hits+misses), "ratio"},
			{"server.admission_wait_ms", 1000 * ratio(waitSum1-waitSum0, waitN1-waitN0), "ms"},
			{"loadgen.cpu_share", timed.cpu.Seconds() / (timed.elapsed.Seconds() * float64(runtime.NumCPU())), "ratio"},
		}
		rp, err := replay(w, exp, specs, filepath.Join(outDir, fmt.Sprintf("spans-%s-s%d.jsonl", name, seed)))
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		metrics = append(metrics, rp.metrics...)
		replayFailures = rp.failures
	} else {
		metrics = []metric{
			{"qps", float64(timed.ok) / timed.elapsed.Seconds(), "1/s"},
			{"p50_ms", percentile(lat, 0.50), "ms"},
			{"p99_ms", percentile(lat, 0.99), "ms"},
			{"ok_ratio", ratio(float64(timed.ok), float64(timed.attempted)), "ratio"},
			{"setup_s", median(setup), "s"},
			{"peak_rss_mb", rss, "MB"},
		}
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d operations in %.3fs (%d ok, %d wrong, %d errors; %d right in content but not byte-identical), %d samples, %d beyond p99, warm-up %d operations\n",
		name, seed, timed.attempted, timed.elapsed.Seconds(), timed.ok, timed.wrong, timed.errors, timed.drift+warm.drift,
		len(lat), beyond(len(lat), 0.99), warm.attempted)
	var total time.Duration
	for _, d := range all {
		total += d
	}
	kinds := make([]string, 0, len(timed.latencies))
	for k := range timed.latencies {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ls := timed.latencies[k]
		var sum time.Duration
		for _, d := range ls {
			sum += d
		}
		fmt.Fprintf(stdout, "  %-8s %7d operations, %5.1f%% of client time, p50 %.3f ms\n", k, len(ls), 100*float64(sum)/float64(total), percentile(millis(ls), 0.5))
	}
	covered := int(l.next.Load())
	if covered > digestN {
		covered = digestN
	}
	h := sha256.New()
	for _, d := range l.digests[:covered] {
		h.Write(d[:])
	}
	fmt.Fprintf(stdout, "body digest over stream positions 0..%d: %s\n", covered-1, hex.EncodeToString(h.Sum(nil)))
	for _, s := range append(l.wrongs, replayFailures...) {
		fmt.Fprintf(stdout, "FAIL %s\n", s)
	}
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-32s %14.6f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := failed == 0 && warm.attempted == warm.ok && len(replayFailures) == 0
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": timed.attempted, "failed": failed, "metrics": out})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return fmt.Errorf("wrong or failed operations (see FAIL lines)")
	}
	return nil
}

// expectAll computes every distinct request's expectation, on one worker
// per CPU.
func expectAll(w *workload) []expectation {
	exp := make([]expectation, len(w.reqs))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(w.reqs); i += workers {
				if w.reqs[i].kind != kindReload {
					exp[i] = expect(w, w.reqs[i])
				}
			}
		}(k)
	}
	wg.Wait()
	return exp
}
