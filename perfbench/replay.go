package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"wdpt"
	"wdpt/internal/report"
	"wdpt/internal/server"
)

// The traced run replays a sample of the workload's requests in-process,
// through each layer's public functions, and records a span around every
// call into a layer. Spans stay in memory and are written out at the end.

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that made the call (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans, timed from its epoch.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// start opens a span and returns its ID.
func (r *recorder) start(req string, parent int, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span with the given ID.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// tracedEngine times every Satisfiable and Project call of the engine it
// wraps as a child span of the enclosing Solve span. It is the only code of
// the benchmark that depends on the Engine method set.
type tracedEngine struct {
	inner  wdpt.Engine
	rec    *recorder
	req    string
	parent int
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Satisfiable(atoms []wdpt.Atom, d *wdpt.Database, fixed wdpt.Mapping) bool {
	id := e.rec.start(e.req, e.parent, "cqeval.Satisfiable")
	ok := e.inner.Satisfiable(atoms, d, fixed)
	e.rec.end(id)
	return ok
}

func (e *tracedEngine) Project(atoms []wdpt.Atom, d *wdpt.Database, fixed wdpt.Mapping, proj []string) []wdpt.Mapping {
	id := e.rec.start(e.req, e.parent, "cqeval.Project")
	out := e.inner.Project(atoms, d, fixed, proj)
	e.rec.end(id)
	return out
}

func (e *tracedEngine) Explain(atoms []wdpt.Atom, d *wdpt.Database, fixed wdpt.Mapping) wdpt.Plan {
	return e.inner.Explain(atoms, d, fixed)
}

// replaySample is the number of distinct requests each workload replays.
var replaySample = map[string]int{"enumerate": 40, "lookup": 220, "repeat": repeatKeys}

// setupRepeats is how often the traced run times dataset parsing and
// registry reloads (the median is reported).
const setupRepeats = 3

// solveModes maps the wire mode names onto Solve modes.
var solveModes = map[string]wdpt.SolveMode{
	"enumerate": wdpt.ModeEnumerate,
	"exact":     wdpt.ModeExact,
	"partial":   wdpt.ModePartial,
	"max":       wdpt.ModeMax,
}

// solver is what PatternTree and Union share.
type solver interface {
	Solve(ctx context.Context, d *wdpt.Database, opts wdpt.SolveOptions) (wdpt.SolveResult, error)
}

// parseQuery parses a request the way the server does: a single-member
// union is evaluated as its tree.
func parseQuery(q string) (solver, error) {
	u, err := wdpt.ParseUnionQuery(q)
	if err != nil {
		return nil, err
	}
	if trees := u.Trees(); len(trees) == 1 {
		return trees[0], nil
	}
	return u, nil
}

// encodeResult builds and encodes the report the server serves for a
// parallelism-1 auto-engine request (SetAnswers sorts canonically).
func encodeResult(mode string, res wdpt.SolveResult) ([]byte, error) {
	rep := report.Report{Mode: mode, Engine: "auto", Parallelism: 1}
	if mode == "enumerate" {
		rep.SetAnswers(res.Answers)
	} else {
		rep.SetResult(res.Holds)
	}
	var buf bytes.Buffer
	err := report.Encode(&buf, rep)
	return buf.Bytes(), err
}

// pass is one evaluation of a request: body, counters, and the time spent
// in each layer.
type pass struct {
	body                 []byte
	counters             map[string]int64
	parse, solve, encode time.Duration
}

func (p pass) total() time.Duration { return p.parse + p.solve + p.encode }

// evaluate runs one request through parse, Solve and encode. With st set
// the engine records counters; with rec set every call is a span under
// root and the engine is wrapped in tracedEngine; with mem set the MemStats
// delta around Solve is added to it.
func evaluate(r *request, d *wdpt.Database, st *wdpt.Stats, rec *recorder, root int, mem *runtime.MemStats) (pass, error) {
	var p pass
	open := func(name string) int {
		if rec == nil {
			return 0
		}
		return rec.start(r.query, root, name)
	}
	closeSpan := func(id int) {
		if rec != nil {
			rec.end(id)
		}
	}
	t0 := time.Now()
	id := open("sparql.ParseUnionQuery")
	q, err := parseQuery(r.query)
	closeSpan(id)
	t1 := time.Now()
	if err != nil {
		return p, err
	}
	opts := wdpt.SolveOptions{Mode: solveModes[r.mode], Parallelism: 1, Engine: wdpt.AutoEngine()}
	if r.mode != "enumerate" {
		opts.Mapping = wdpt.Mapping(r.mapping)
	}
	if st != nil {
		opts.Engine, opts.Stats = wdpt.WithStats(opts.Engine, st), st
	}
	var m0, m1 runtime.MemStats
	if mem != nil {
		runtime.ReadMemStats(&m0)
	}
	t2 := time.Now()
	id = open("Solve")
	if rec != nil {
		opts.Engine = &tracedEngine{inner: opts.Engine, rec: rec, req: r.query, parent: id}
	}
	res, err := q.Solve(context.Background(), d, opts)
	closeSpan(id)
	t3 := time.Now()
	if mem != nil {
		runtime.ReadMemStats(&m1)
		mem.Mallocs += m1.Mallocs - m0.Mallocs
		mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	}
	if err != nil {
		return p, err
	}
	id = open("report.Encode")
	p.body, err = encodeResult(r.mode, res)
	closeSpan(id)
	t4 := time.Now()
	p.parse, p.solve, p.encode = t1.Sub(t0), t3.Sub(t2), t4.Sub(t3)
	if st != nil {
		p.counters = st.Snapshot()
	}
	return p, err
}

// replayOut is the traced run's result.
type replayOut struct {
	metrics  []metric
	failures []string
}

// replay runs the traced replay of the first replaySample distinct requests
// of the stream, asserting that the traced Solve returns byte-identical
// bodies and identical counters compared with the unwrapped Solve.
func replay(w *workload, exp []expectation, specs map[string]string, spansPath string) (*replayOut, error) {
	out := &replayOut{}
	rec := &recorder{epoch: time.Now()}
	fail := func(format string, args ...any) {
		if len(out.failures) < 5 {
			out.failures = append(out.failures, fmt.Sprintf(format, args...))
		}
	}

	// Set-up layers: dataset parsing (with its heap cost) and registry
	// reloads, which run the same path as server startup.
	var parseTimes []float64
	var heapPerAtom float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		atoms := 0
		var dbs []*wdpt.Database
		var took time.Duration
		for _, name := range w.datasetNames() {
			id := rec.start("setup", 0, "sparql.ParseDatabase")
			t0 := time.Now()
			d, err := wdpt.ParseDatabase(string(w.files[name]))
			took += time.Since(t0)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", name, err)
			}
			atoms += d.Size()
			dbs = append(dbs, d)
		}
		parseTimes = append(parseTimes, took.Seconds())
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heapPerAtom = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(atoms)
		runtime.KeepAlive(dbs)
	}
	reg, err := server.NewRegistry(specs)
	if err != nil {
		return nil, err
	}
	var reloadTimes []float64
	for i := 0; i < setupRepeats; i++ {
		id := rec.start("setup", 0, "Registry.Reload")
		t0 := time.Now()
		_, err := reg.Reload()
		reloadTimes = append(reloadTimes, time.Since(t0).Seconds())
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	srv, err := server.NewServer(server.Config{Registry: reg, CacheSize: 0})
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Shutdown(context.Background()) }()

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var (
		n                   int
		answers             float64
		bodyBytes           float64
		overheads           []float64 // traced over plain time, per request
		parseSum, encodeSum time.Duration
		serverSelf          []float64 // µs, per request
		counters            = map[string]int64{}
		memoLost            int
		mem                 runtime.MemStats
		seen                = map[int]bool{}
	)
	for pos := int64(0); n < replaySample[w.name] && pos < int64(len(w.stream)); pos++ {
		idx, r := w.at(pos)
		if r.kind == kindReload || seen[idx] {
			continue
		}
		seen[idx] = true
		n++
		ds, ok := reg.Get(r.dataset)
		if !ok {
			return nil, fmt.Errorf("dataset %s not loaded", r.dataset)
		}
		// Unwrapped Solve with counters: the reference for the traced pass, and
		// the allocation count (ReadMemStats around it would slow a timed pass).
		ref, err := evaluate(r, ds.DB, wdpt.NewStats(), nil, 0, &mem)
		if err != nil {
			fail("%s: %v", r.query, err)
			continue
		}
		// The traced and the plain pass alternate which runs first, so
		// neither always runs on the caches the other warmed.
		var traced, plain pass
		var terr, perr error
		runTraced := func() {
			root := rec.start(r.query, 0, "request")
			traced, terr = evaluate(r, ds.DB, wdpt.NewStats(), rec, root, nil)
			rec.end(root)
		}
		runPlain := func() { plain, perr = evaluate(r, ds.DB, nil, nil, 0, nil) }
		if n%2 == 0 {
			runTraced()
			runPlain()
		} else {
			runPlain()
			runTraced()
		}
		if terr != nil || perr != nil {
			fail("%s: traced: %v, plain: %v", r.query, terr, perr)
			continue
		}
		served, inner, err := serve(srv, rec, r)
		if err != nil {
			fail("%s: %v", r.query, err)
			continue
		}

		if sha256.Sum256(plain.body) != exp[idx].digest && !sameAnswers(w, r, plain.body) {
			fail("%s: wrong answer in-process", r.query)
		}
		if !bytes.Equal(traced.body, ref.body) || !bytes.Equal(plain.body, ref.body) {
			fail("%s: traced or plain body differs from the unwrapped Solve", r.query)
		}
		switch diff := counterDiff(ref.counters, traced.counters); {
		case len(diff) == 0:
		case memoOnly(diff, traced.counters):
			memoLost++
		default:
			fail("%s: traced counters differ from the unwrapped Solve: %v", r.query, diff)
		}
		if !sameAnswers(w, r, served.body) {
			fail("%s: wrong answer from ServeHTTP", r.query)
		}
		for k, v := range ref.counters {
			counters[k] += v
		}
		answers += float64(exp[idx].count)
		bodyBytes += float64(len(plain.body))
		overheads = append(overheads, ratio(float64(traced.total()), float64(plain.total())))
		parseSum += plain.parse
		encodeSum += plain.encode
		serverSelf = append(serverSelf, us(served.wall-inner-plain.encode))
	}
	if n == 0 {
		return nil, fmt.Errorf("no requests to replay")
	}

	// Self times from the spans: Solve minus its engine calls.
	var solveSelf, engine time.Duration
	var calls int
	for _, s := range rec.spans {
		switch s.Name {
		case "Solve":
			solveSelf += s.dur()
		case "cqeval.Satisfiable", "cqeval.Project":
			engine += s.dur()
			solveSelf -= s.dur()
			calls++
		}
	}
	perReq := func(v float64) float64 { return v / float64(n) }
	c := func(name string) float64 { return float64(counters[name]) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out.metrics = []metric{
		{"server.self_us", median(serverSelf), "us"},
		{"server.reload_s", median(reloadTimes), "s"},
		{"sparql.parse_us", perReq(us(parseSum)), "us"},
		{"sparql.parse_db_s", median(parseTimes), "s"},
		{"core.self_ms", perReq(ms(solveSelf)), "ms"},
		{"core.allocs", perReq(float64(mem.Mallocs)), "count"},
		{"core.alloc_mb", perReq(float64(mem.TotalAlloc) / (1 << 20)), "MB"},
		{"core.bands_enumerated", perReq(c("core.bands_enumerated")), "count"},
		{"core.extension_units_tested", perReq(c("core.extension_units_tested")), "count"},
		{"core.maximality_checks", perReq(c("core.maximality_checks")), "count"},
		{"core.interface_memo_hit_ratio", ratio(c("core.interface_memo_hits"), c("core.interface_memo_hits")+c("core.interface_memo_misses")), "ratio"},
		{"cqeval.ms", perReq(ms(engine)), "ms"},
		{"cqeval.calls", perReq(float64(calls)), "count"},
		{"cqeval.bag_rows_per_answer", ratio(c("cqeval.bag_rows"), answers), "rows"},
		{"cqeval.plan_cache_hit_ratio", ratio(c("cqeval.plan_cache_hits"), c("cqeval.plan_cache_hits")+c("cqeval.plan_cache_misses")), "ratio"},
		{"cqeval.semijoin_passes", perReq(c("cqeval.semijoin_passes")), "count"},
		{"db.index_probe_rows_per_answer", ratio(c("db.index_probe_rows"), answers), "rows"},
		{"db.dict_lookups", perReq(c("db.dict_lookups")), "count"},
		{"db.heap_bytes_per_atom", heapPerAtom, "B"},
		{"uwdpt.member_evals", perReq(c("uwdpt.member_evals")), "count"},
		{"report.encode_us", perReq(us(encodeSum)), "us"},
		{"report.bytes_per_answer", ratio(bodyBytes, answers), "B"},
		{"trace.overhead_ratio", median(overheads), "ratio"},
		{"trace.memo_counters_lost", perReq(float64(memoLost)), "ratio"},
	}
	if err := writeSpans(spansPath, rec.spans); err != nil {
		return nil, err
	}
	return out, nil
}

// counterDiff lists the counters whose values differ, as "name: a != b".
func counterDiff(a, b map[string]int64) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, fmt.Sprintf("%s: %d != %d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: 0 != %d", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// memoCounters are the counters core's interface evaluator records on the
// stats sink it takes from the engine rather than from SolveOptions.Stats,
// so a wrapped engine (which carries no sink) loses them.
var memoCounters = map[string]bool{"core.interface_memo_hits": true, "core.interface_memo_misses": true}

// memoOnly reports whether every difference is a memo counter the traced
// pass did not record at all: the one known way the wrapper changes
// counters, reported as trace.memo_counters_lost instead of failing.
func memoOnly(diff []string, traced map[string]int64) bool {
	for _, d := range diff {
		name, _, _ := strings.Cut(d, ":")
		if !memoCounters[name] || traced[name] != 0 {
			return false
		}
	}
	return true
}

// served is the in-process server's answer to one request.
type served struct {
	body []byte
	wall time.Duration
}

// serve runs the request through Server.ServeHTTP with ?trace=1, which
// bypasses the result cache and returns the handler's own span tree, and
// returns the response, the handler's wall time, and the time its parse
// and solve child spans cover.
func serve(srv *server.Server, rec *recorder, r *request) (served, time.Duration, error) {
	hreq := httptest.NewRequest(http.MethodPost, "/v1/query?trace=1", bytes.NewReader(r.body))
	hrec := httptest.NewRecorder()
	id := rec.start(r.query, 0, "server.ServeHTTP")
	t0 := time.Now()
	srv.ServeHTTP(hrec, hreq)
	out := served{wall: time.Since(t0), body: hrec.Body.Bytes()}
	rec.end(id)
	if hrec.Code != http.StatusOK {
		return out, 0, fmt.Errorf("ServeHTTP: status %d: %s", hrec.Code, out.body)
	}
	var doc struct {
		Trace []struct {
			Name     string `json:"name"`
			Children []struct {
				Name       string `json:"name"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"children"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(out.body, &doc); err != nil {
		return out, 0, fmt.Errorf("ServeHTTP: decoding the traced body: %w", err)
	}
	var inner time.Duration
	for _, root := range doc.Trace {
		for _, c := range root.Children {
			if c.Name == "parse" || c.Name == "solve" {
				inner += time.Duration(c.DurationNS)
			}
		}
	}
	if inner == 0 {
		return out, 0, fmt.Errorf("ServeHTTP: the traced body has no parse or solve span")
	}
	return out, inner, nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
