package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Sizes of the generated datasets. The graph and the music data follow the
// construction of the repository's internal/gen LayeredDatabase and
// MusicDatabaseLarge (same shapes, same random draws for the same seed), so
// the generated files hold the atoms those functions insert.
const (
	graphLayers   = 8
	graphPerLayer = 2000
	graphOutDeg   = 4
	chainDepth    = 5
	musicBands    = 2000
	musicRecords  = 10
)

// Stream sizes. A stream position past the end wraps around; every key
// recurs only after more distinct keys than the server's 256-entry result
// cache holds, except on the repeat workload, whose keys fit the cache.
const (
	lookupStream  = 16384
	repeatKeys    = 128
	repeatStream  = 1 << 18
	repeatReload  = 4096 // every repeatReload-th position of repeat is a reload
	enumUnionEach = 4    // every enumUnionEach-th position of enumerate is a union
)

// graph is a layered directed graph: succ[l][i] lists the distinct
// successors, in layer l+1, of vertex i of layer l.
type graph struct {
	layers, perLayer int
	succ             [][][]int
	// For the checker: vertex names, the successor lists sorted by name,
	// and the chain variable names.
	names  [][]string
	sorted [][][]int
	vars   []string
}

// vertex names vertex i of layer l.
func vertex(l, i int) string { return fmt.Sprintf("L%d_%d", l, i) }

// genGraph draws a layered graph: each vertex of every layer but the last
// gets outDeg random edges into the next layer (duplicates collapse).
func genGraph(layers, perLayer, outDeg int, seed int64) *graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graph{layers: layers, perLayer: perLayer, succ: make([][][]int, layers)}
	for l := 0; l < layers; l++ {
		g.succ[l] = make([][]int, perLayer)
		if l+1 == layers {
			continue
		}
		for i := 0; i < perLayer; i++ {
			var out []int
			for e := 0; e < outDeg; e++ {
				j := rng.Intn(perLayer)
				dup := false
				for _, k := range out {
					dup = dup || k == j
				}
				if !dup {
					out = append(out, j)
				}
			}
			g.succ[l][i] = out
		}
	}
	g.index()
	return g
}

// index fills the checker's lookup tables from succ.
func (g *graph) index() {
	layers, perLayer := g.layers, g.perLayer
	g.names = make([][]string, layers)
	for l := range g.names {
		g.names[l] = make([]string, perLayer)
		for i := range g.names[l] {
			g.names[l][i] = vertex(l, i)
		}
	}
	g.sorted = make([][][]int, layers)
	for l := range g.sorted {
		g.sorted[l] = make([][]int, perLayer)
		for i, out := range g.succ[l] {
			s := append([]int(nil), out...)
			sort.Slice(s, func(a, b int) bool { return g.names[l+1][s[a]] < g.names[l+1][s[b]] })
			g.sorted[l][i] = s
		}
	}
	g.vars = chainVars(layers)
}

// text renders the graph in the ground-atom database format: V(v) for every
// vertex and E(u, v) for every edge.
func (g *graph) text() []byte {
	var b bytes.Buffer
	for l := 0; l < g.layers; l++ {
		for i := 0; i < g.perLayer; i++ {
			fmt.Fprintf(&b, "V(%s).\n", vertex(l, i))
			for _, j := range g.succ[l][i] {
				fmt.Fprintf(&b, "E(%s, %s).\n", vertex(l, i), vertex(l+1, j))
			}
		}
	}
	return b.Bytes()
}

// record is one music record: its name, whether it was published after
// 2010, and its ratings.
type record struct {
	name    string
	after   bool
	ratings []string
}

// band is one band: its name, founding years, and records.
type band struct {
	name   string
	formed []string
	recs   []record
}

// genMusic draws the synthetic music data: two bands in three carry a
// founding year, every record a publication period, half the records a
// rating.
func genMusic(nBands, perBand int, seed int64) []band {
	rng := rand.New(rand.NewSource(seed))
	out := make([]band, nBands)
	for b := range out {
		bd := band{name: fmt.Sprintf("band%d", b)}
		if rng.Intn(3) != 0 {
			bd.formed = []string{fmt.Sprint(1960 + rng.Intn(60))}
		}
		for r := 0; r < perBand; r++ {
			rec := record{name: fmt.Sprintf("rec%d_%d", b, r), after: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				rec.ratings = []string{fmt.Sprint(1 + rng.Intn(10))}
			}
			bd.recs = append(bd.recs, rec)
		}
		out[b] = bd
	}
	return out
}

// musicText renders the music data in the ground-atom database format.
func musicText(bands []band) []byte {
	var b bytes.Buffer
	for _, bd := range bands {
		for _, y := range bd.formed {
			fmt.Fprintf(&b, "formed_in(%s, %s).\n", bd.name, y)
		}
		for _, r := range bd.recs {
			fmt.Fprintf(&b, "recorded_by(%s, %s).\n", r.name, bd.name)
			period := "before_2010"
			if r.after {
				period = "after_2010"
			}
			fmt.Fprintf(&b, "published(%s, %s).\n", r.name, period)
			for _, z := range r.ratings {
				fmt.Fprintf(&b, "rating(%s, %s).\n", r.name, z)
			}
		}
	}
	return b.Bytes()
}

// Request kinds.
const (
	kindChain  = "chain"  // OPT-chain enumeration from one start vertex
	kindUnion  = "union"  // UNION of two OPT chains
	kindLookup = "lookup" // the Figure 1 query with the band bound
	kindExact  = "exact"  // EVAL of a candidate mapping against a chain
	kindMax    = "max"    // MAX-EVAL of a candidate mapping against a chain
	kindPart   = "partial"
	kindReload = "reload" // POST /admin/reload
)

// request is one distinct operation of a stream: what is sent and what the
// checker needs to compute its expected answer.
type request struct {
	kind    string
	dataset string
	query   string
	mode    string
	mapping map[string]string
	starts  []int // chain start vertices (layer 0)
	band    int   // lookup band index
	body    []byte
}

// wireRequest is the /v1/query document.
type wireRequest struct {
	Dataset     string            `json:"dataset"`
	Query       string            `json:"query"`
	Mode        string            `json:"mode,omitempty"`
	Mapping     map[string]string `json:"mapping,omitempty"`
	Parallelism int               `json:"parallelism"`
}

// encode fills r.body with the /v1/query document. Every request runs at
// parallelism 1: two clients then keep both server CPUs busy.
func (r *request) encode() {
	if r.kind == kindReload {
		return
	}
	body, err := json.Marshal(wireRequest{Dataset: r.dataset, Query: r.query, Mode: r.mode, Mapping: r.mapping, Parallelism: 1})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	r.body = body
}

// chainVars names the chain variables x1..xdepth.
func chainVars(depth int) []string {
	out := make([]string, depth)
	for i := range out {
		out[i] = fmt.Sprintf("x%d", i+1)
	}
	return out
}

// chainPattern is the depth-deep OPT chain from start:
// E(s, ?x1) OPT (E(?x1, ?x2) OPT (... OPT E(?x4, ?x5))).
func chainPattern(start string, depth int) string {
	vars := chainVars(depth)
	p := fmt.Sprintf("E(?%s, ?%s)", vars[depth-2], vars[depth-1])
	for k := depth - 2; k >= 1; k-- {
		p = fmt.Sprintf("E(?%s, ?%s) OPT (%s)", vars[k-1], vars[k], p)
	}
	return fmt.Sprintf("E(%s, ?x1) OPT (%s)", start, p)
}

// chainQuery selects every chain variable of the chains from the given
// start vertices, joined by UNION when there are several.
func chainQuery(starts []int, depth int) string {
	sel := "SELECT ?" + strings.Join(chainVars(depth), " ?") + " WHERE "
	parts := make([]string, len(starts))
	for i, s := range starts {
		parts[i] = sel + chainPattern(vertex(0, s), depth)
	}
	return strings.Join(parts, " UNION ")
}

// lookupQuery is the Figure 1 query with the band bound to a constant.
func lookupQuery(bandName string) string {
	return fmt.Sprintf("SELECT ?x ?z ?zp WHERE ((recorded_by(?x, %s) AND published(?x, after_2010)) OPT rating(?x, ?z)) OPT formed_in(%s, ?zp)", bandName, bandName)
}

// workload is one generated benchmark input: the dataset files the server
// loads, the distinct requests, and the stream of request indices the
// clients walk in order.
type workload struct {
	name   string
	depth  int // chain depth
	g      *graph
	music  []band
	files  map[string][]byte // dataset name -> file contents
	reqs   []*request
	stream []int32
}

// Dataset names.
const (
	dsGraph = "graph"
	dsMusic = "music"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"enumerate", "lookup", "repeat"}

// sizes parameterizes the generators, so the self-tests can run the same
// construction on small instances.
type sizes struct {
	layers, perLayer, outDeg, depth int
	bands, records                  int
}

// fullSizes are the benchmark's sizes.
var fullSizes = sizes{graphLayers, graphPerLayer, graphOutDeg, chainDepth, musicBands, musicRecords}

// Seed derivation: each generator gets its own stream, so changing one
// workload's request mix never changes another's data.
func graphSeed(seed int64) int64  { return seed }
func musicSeed(seed int64) int64  { return seed*7919 + 17 }
func streamSeed(seed int64) int64 { return seed*104729 + 3 }

// buildWorkload generates the named workload as a pure function of seed.
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{name: name, depth: sz.depth, files: map[string][]byte{}}
	rng := rand.New(rand.NewSource(streamSeed(seed)))
	switch name {
	case "enumerate":
		w.g = genGraph(sz.layers, sz.perLayer, sz.outDeg, graphSeed(seed))
		w.files[dsGraph] = w.g.text()
		w.buildEnumerate(rng, sz)
	case "lookup":
		w.g = genGraph(sz.layers, sz.perLayer, sz.outDeg, graphSeed(seed))
		w.music = genMusic(sz.bands, sz.records, musicSeed(seed))
		w.files[dsGraph] = w.g.text()
		w.files[dsMusic] = musicText(w.music)
		w.buildLookup(rng, sz)
	case "repeat":
		w.music = genMusic(sz.bands, sz.records, musicSeed(seed))
		w.files[dsMusic] = musicText(w.music)
		w.buildRepeat(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, r := range w.reqs {
		r.encode()
	}
	return w, nil
}

// buildEnumerate: three single chains, then a two-chain UNION, repeated.
// Single chains walk one seeded permutation of the layer-0 vertices, the
// unions pair up the vertices of a second one, so no key recurs within
// perLayer single chains or perLayer/2 unions.
func (w *workload) buildEnumerate(rng *rand.Rand, sz sizes) {
	singles, pairs := rng.Perm(sz.perLayer), rng.Perm(sz.perLayer)
	nSingle, nUnion := len(singles), len(pairs)/2
	for _, s := range singles {
		w.reqs = append(w.reqs, &request{kind: kindChain, dataset: dsGraph, starts: []int{s},
			query: chainQuery([]int{s}, sz.depth), mode: "enumerate"})
	}
	for u := 0; u < nUnion; u++ {
		st := []int{pairs[2*u], pairs[2*u+1]}
		w.reqs = append(w.reqs, &request{kind: kindUnion, dataset: dsGraph, starts: st,
			query: chainQuery(st, sz.depth), mode: "enumerate"})
	}
	n := nSingle * enumUnionEach
	if u := nUnion * enumUnionEach; u > n {
		n = u
	}
	for i := 0; i < n; i++ {
		q, r := i/enumUnionEach, i%enumUnionEach
		if r == enumUnionEach-1 {
			w.stream = append(w.stream, int32(nSingle+q%nUnion))
		} else {
			w.stream = append(w.stream, int32((q*(enumUnionEach-1)+r)%nSingle))
		}
	}
}

// lookupMix is one round of the lookup workload: the request kinds in the
// order a round issues them, before the round is shuffled. The weights keep
// each kind under half of the workload's client time (README.md).
var lookupMix = []string{
	kindLookup, kindLookup, kindLookup, kindLookup, kindLookup, kindLookup,
	kindExact, kindExact, kindExact, kindExact, kindExact, kindExact,
	kindMax, kindMax, kindMax, kindMax, kindMax, kindMax,
	kindPart,
}

// partialDepth is the chain variable a PARTIAL-EVAL candidate binds: deep
// enough that the engine materializes every path prefix up to it.
const partialDepth = 3

// buildLookup mixes Figure 1 band lookups on the music data with EVAL,
// MAX-EVAL and PARTIAL-EVAL checks of seeded candidates against OPT chains
// on the graph. Each kind walks its own permutation, so every key is new
// for at least as many positions as the graph has start vertices.
func (w *workload) buildLookup(rng *rand.Rand, sz sizes) {
	bands := rng.Perm(sz.bands)
	starts := map[string][]int{}
	for _, k := range []string{kindExact, kindMax, kindPart} {
		starts[k] = rng.Perm(sz.perLayer)
	}
	used := map[string]int{}
	round := append([]string(nil), lookupMix...)
	for len(w.stream) < lookupStream {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, k := range round {
			n := used[k]
			used[k]++
			var r *request
			if k == kindLookup {
				b := bands[n%len(bands)]
				r = &request{kind: k, dataset: dsMusic, band: b, query: lookupQuery(w.music[b].name), mode: "enumerate"}
			} else {
				s := starts[k][n%len(starts[k])]
				r = &request{kind: k, dataset: dsGraph, starts: []int{s}, query: chainQuery([]int{s}, sz.depth),
					mode: k, mapping: w.candidate(rng, k, s, sz.depth)}
			}
			w.stream = append(w.stream, int32(len(w.reqs)))
			w.reqs = append(w.reqs, r)
		}
	}
}

// candidate draws the decision-mode candidate mapping for a chain from s:
//   - exact and max: a random full path, half the time with its last
//     vertex (exact) or its tail past x3 (max) replaced, which mostly
//     makes the answer false;
//   - partial: a deep binding of x_partialDepth alone, to a vertex of a
//     random walk or to a random vertex of that layer.
func (w *workload) candidate(rng *rand.Rand, kind string, s, depth int) map[string]string {
	path := make([]int, 0, depth)
	v := s
	for l := 0; l < depth; l++ {
		succ := w.g.succ[l][v]
		if len(succ) == 0 {
			break
		}
		v = succ[rng.Intn(len(succ))]
		path = append(path, v)
	}
	flip := rng.Intn(2) == 0
	other := rng.Intn(w.g.perLayer)
	h := map[string]string{}
	switch kind {
	case kindPart:
		end := other
		if !flip && len(path) >= partialDepth {
			end = path[partialDepth-1]
		}
		h[fmt.Sprintf("x%d", partialDepth)] = vertex(partialDepth, end)
		return h
	case kindMax:
		if flip && len(path) > 3 {
			path = path[:3]
		}
	case kindExact:
		if flip && len(path) == depth {
			path[depth-1] = other
		}
	}
	for i, v := range path {
		h[fmt.Sprintf("x%d", i+1)] = vertex(i+1, v)
	}
	return h
}

// buildRepeat draws Zipf-skewed band lookups over repeatKeys bands, with a
// reload at every repeatReload-th position.
func (w *workload) buildRepeat(rng *rand.Rand) {
	bands := rng.Perm(len(w.music))
	if len(bands) > repeatKeys {
		bands = bands[:repeatKeys]
	}
	for _, b := range bands {
		w.reqs = append(w.reqs, &request{kind: kindLookup, dataset: dsMusic, band: b, query: lookupQuery(w.music[b].name), mode: "enumerate"})
	}
	reload := int32(len(w.reqs))
	w.reqs = append(w.reqs, &request{kind: kindReload})
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(bands)-1))
	w.stream = make([]int32, repeatStream)
	for i := range w.stream {
		if i%repeatReload == repeatReload-1 {
			w.stream[i] = reload
		} else {
			w.stream[i] = int32(zipf.Uint64())
		}
	}
}

// at returns the request at stream position i (the stream wraps).
func (w *workload) at(i int64) (int, *request) {
	idx := int(w.stream[i%int64(len(w.stream))])
	return idx, w.reqs[idx]
}

// writeFiles writes the dataset files into dir and returns the
// name=path specs for wdptd's -dataset flags, sorted by name.
func (w *workload) writeFiles(dir string) (map[string]string, error) {
	specs := map[string]string{}
	for name, data := range w.files {
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, fmt.Errorf("writing dataset %s: %w", name, err)
		}
		specs[name] = path
	}
	return specs, nil
}

// datasetNames returns the workload's dataset names, sorted.
func (w *workload) datasetNames() []string {
	out := make([]string, 0, len(w.files))
	for name := range w.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
