// Command wdptbench regenerates the paper's tables and figures as text
// tables: one experiment per artifact (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	wdptbench -list
//	wdptbench                 # run everything (about a minute)
//	wdptbench -run E2,E8      # run selected experiments
//	wdptbench -quick          # smoke-test sizes (-short is an alias)
//	wdptbench -json           # also write the BENCH_<date>.json artifact
//	wdptbench -parallelism 0  # Solve worker pool sized to NumCPU
//	wdptbench -snapshot dir   # snapshot reload vs text reparse micro-bench
//
// The -snapshot mode is a standalone micro-benchmark of the persistence
// layer (docs/STORAGE.md): it generates the largest synthetic music
// fixture, persists it once through the crash-safe snapshot writer into
// dir, then times text reparsing against snapshot reloading (best of -reps
// rounds each), verifies the reloaded database is identical, and prints the
// speedup. It exits non-zero when the reloaded data diverges or the speedup
// falls below WDPT_SNAP_MIN_SPEEDUP (default 1.5) — the CI regression gate
// for "reload must beat reparse".
//
// With -json, the run additionally writes a BENCH_<date><suffix>.json
// metrics artifact into -out (default "."): per-experiment wall-clock time,
// the engine work counters of docs/OBSERVABILITY.md, per-measured-point
// latency summaries (min plus p50/p95/p99 over the repetitions), and the
// rendered rows — the machine-readable companion to EXPERIMENTS.md. The
// artifact is stamped with the commit (WDPT_COMMIT, falling back to
// git rev-parse HEAD, empty if unavailable) and the Go version, so
// scripts/benchdiff.sh can label what it compares. The -suffix flag
// distinguishes artifacts of the same day (CI writes one per parallelism
// level). The -cpuprofile, -memprofile, and -exectrace flags capture
// pprof/runtime-trace artifacts of the whole run.
//
// -parallelism sets the Solve worker pool the experiments run under:
// 1 (the default) is the exact sequential engine, 0 means runtime.NumCPU,
// and any other value is the worker bound. Tables and non-par.* counters
// are byte-identical at every level — compare elapsed_ns across artifacts
// to read the scaling.
//
// The command exits non-zero when any experiment's built-in cross-checks
// report an ERROR or a DISAGREEMENT, so a clean run doubles as an
// end-to-end correctness check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/gen"
	"wdpt/internal/harness"
	"wdpt/internal/obs"
	"wdpt/internal/sparql"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchExperiment is one experiment's slice of the BENCH_<date>.json
// artifact: identity, wall-clock cost, work counters, and the table rows.
type benchExperiment struct {
	ID        string                `json:"id"`
	Title     string                `json:"title"`
	Paper     string                `json:"paper"`
	ElapsedNS int64                 `json:"elapsed_ns"`
	Counters  map[string]int64      `json:"counters"`
	Columns   []string              `json:"columns"`
	Rows      [][]string            `json:"rows"`
	Notes     []string              `json:"notes,omitempty"`
	Timings   []harness.TimingPoint `json:"timings,omitempty"`
}

// benchArtifact is the top-level BENCH_<date><suffix>.json document.
type benchArtifact struct {
	Date        string            `json:"date"`
	Commit      string            `json:"commit"`
	GoVersion   string            `json:"go_version"`
	Quick       bool              `json:"quick"`
	Repetitions int               `json:"repetitions"`
	Parallelism int               `json:"parallelism"`
	Experiments []benchExperiment `json:"experiments"`
}

// commitStamp identifies the benchmarked commit: WDPT_COMMIT when set (CI
// passes the exact SHA it checked out), otherwise git rev-parse HEAD, and
// the empty string when neither is available (tarball builds).
func commitStamp() string {
	if c := strings.TrimSpace(os.Getenv("WDPT_COMMIT")); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all)")
	quick := fs.Bool("quick", false, "use smoke-test sizes")
	short := fs.Bool("short", false, "alias of -quick")
	reps := fs.Int("reps", 0, "repetitions per measured point (default 3)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "write the BENCH_<date><suffix>.json metrics artifact")
	outDir := fs.String("out", ".", "directory for the BENCH_<date><suffix>.json artifact")
	parallelism := fs.Int("parallelism", 1, "Solve worker pool size (1 = sequential, 0 = NumCPU)")
	snapDir := fs.String("snapshot", "", "run the snapshot reload-vs-reparse micro-benchmark in this directory and exit")
	suffix := fs.String("suffix", "", "artifact filename suffix, e.g. -p8 -> BENCH_<date>-p8.json")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	traceFile := fs.String("exectrace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     reproduces: %s\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}
	if *snapDir != "" {
		if err := snapshotBench(*snapDir, *quick || *short, *reps, stdout); err != nil {
			fmt.Fprintf(stderr, "wdptbench: snapshot: %v\n", err)
			return 1
		}
		return 0
	}
	var selected []harness.Experiment
	if *runIDs == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := harness.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "wdptbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}
	stop, err := obs.Profiles{CPUFile: *cpuProfile, MemFile: *memProfile, TraceFile: *traceFile}.Start()
	if err != nil {
		fmt.Fprintf(stderr, "wdptbench: %v\n", err)
		return 2
	}
	par := *parallelism
	if par == 0 {
		par = runtime.NumCPU()
	}
	// The first interrupt cancels the in-flight Solve calls (the context
	// reaches the context-aware experiments through Config.BaseContext) and
	// stops the sweep at the next experiment boundary; once it fires, the
	// handler is unregistered so a second Ctrl-C terminates immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	//lint:ignore R11 watcher is joined by process lifetime: it unregisters the signal handler after the first interrupt and exits; joining it would hold main hostage to the signal it exists to release
	go func() {
		<-ctx.Done()
		stopSignals()
	}()
	cfg := harness.Config{Quick: *quick || *short, Repetitions: *reps, Parallelism: par, BaseContext: ctx}
	artifact := benchArtifact{
		Date:        time.Now().Format("2006-01-02"),
		Commit:      commitStamp(),
		GoVersion:   runtime.Version(),
		Quick:       cfg.Quick,
		Repetitions: *reps,
		Parallelism: par,
	}
	failed := false
	interrupted := false
	for _, e := range selected {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		// A fresh Stats and TimingLog per experiment keep each artifact
		// entry's counters and latency summaries attributable to that
		// experiment alone.
		cfg.Stats = obs.NewStats()
		cfg.Timings = &harness.TimingLog{}
		start := time.Now()
		tbl := e.Run(cfg)
		elapsed := time.Since(start)
		if *csv {
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		} else {
			fmt.Fprintf(stdout, "%s\n(total experiment time: %v)\n\n",
				tbl.Render(), elapsed.Round(time.Millisecond))
		}
		for _, n := range tbl.Notes {
			if strings.Contains(n, "ERROR") || strings.Contains(n, "DISAGREEMENT") {
				failed = true
			}
		}
		artifact.Experiments = append(artifact.Experiments, benchExperiment{
			ID:        tbl.ID,
			Title:     tbl.Title,
			Paper:     tbl.Paper,
			ElapsedNS: elapsed.Nanoseconds(),
			Counters:  cfg.Stats.Snapshot(),
			Columns:   tbl.Columns,
			Rows:      tbl.Rows,
			Notes:     tbl.Notes,
			Timings:   cfg.Timings.Points(),
		})
	}
	if serr := stop(); serr != nil {
		fmt.Fprintf(stderr, "wdptbench: %v\n", serr)
		return 2
	}
	if interrupted {
		fmt.Fprintln(stderr, "wdptbench: interrupted; sweep stopped without writing artifacts")
		return 1
	}
	if *jsonOut {
		path := filepath.Join(*outDir, "BENCH_"+artifact.Date+*suffix+".json")
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "wdptbench: %v\n", err)
			return 2
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "wdptbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if failed {
		fmt.Fprintln(stderr, "wdptbench: at least one experiment reported an ERROR")
		return 1
	}
	return 0
}

// snapMinSpeedup reads the WDPT_SNAP_MIN_SPEEDUP gate (default 1.5). The
// tolerant default leaves headroom for noisy shared CI machines: reload is
// typically several times faster than reparse, so 1.5x only trips on a real
// regression (e.g. the loader re-validating per tuple).
func snapMinSpeedup() float64 {
	if s := strings.TrimSpace(os.Getenv("WDPT_SNAP_MIN_SPEEDUP")); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1.5
}

// snapshotBench is the -snapshot mode: persist the largest generated
// fixture once, then race text reparsing against snapshot reloading (best
// of reps rounds each, minimum latency — transient stalls in either lane
// cannot masquerade as a result). The reloaded database must render
// identically to the parsed one, and reload must beat reparse by
// WDPT_SNAP_MIN_SPEEDUP.
func snapshotBench(dir string, quick bool, reps int, stdout io.Writer) error {
	nBands, perBand := 2000, 8
	if quick {
		nBands = 200
	}
	if reps < 1 {
		reps = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	text := sparql.FormatDatabase(gen.MusicDatabaseLarge(nBands, perBand, 1))
	parsed, err := sparql.ParseDatabase(text)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "bench.snap")
	writeStart := time.Now()
	if err := snapshot.Write(path, parsed); err != nil {
		return err
	}
	writeElapsed := time.Since(writeStart)
	parseMin := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := sparql.ParseDatabase(text); err != nil {
			return err
		}
		if e := time.Since(start); e < parseMin {
			parseMin = e
		}
	}
	loadMin := time.Duration(1<<63 - 1)
	var loaded *db.Database
	for i := 0; i < reps; i++ {
		start := time.Now()
		loaded, err = snapshot.Read(path)
		if err != nil {
			return err
		}
		if e := time.Since(start); e < loadMin {
			loadMin = e
		}
	}
	if loaded.String() != parsed.String() {
		return fmt.Errorf("reloaded snapshot diverges from the parsed database")
	}
	speedup := float64(parseMin) / float64(loadMin)
	fmt.Fprintf(stdout, "snapshot bench: %d bands x %d records (%d bytes text), write %v\n",
		nBands, perBand, len(text), writeElapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "  reparse  min of %d: %v\n  reload   min of %d: %v\n  speedup: %.2fx (gate %.2fx)\n",
		reps, parseMin.Round(time.Microsecond), reps, loadMin.Round(time.Microsecond), speedup, snapMinSpeedup())
	if min := snapMinSpeedup(); speedup < min {
		return fmt.Errorf("snapshot reload speedup %.2fx is below the %.2fx gate", speedup, min)
	}
	return nil
}
