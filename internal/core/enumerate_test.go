package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/uwdpt"
)

// wrappedEngine forwards to an engine of cqeval. Being foreign to cqeval,
// it carries no stats sink, pool or meter that cqeval.StatsOf and friends
// could see, and no ID-native projection.
type wrappedEngine struct{ inner cqeval.Engine }

func (e wrappedEngine) Name() string { return e.inner.Name() }

func (e wrappedEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	return e.inner.Satisfiable(atoms, d, fixed)
}

func (e wrappedEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	return e.inner.Project(atoms, d, fixed, proj)
}

func (e wrappedEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	return e.inner.Explain(atoms, d, fixed)
}

// TestWrappedEngineKeepsCounters: Solve through a non-cqeval wrapper
// engine, with SolveOptions.Stats set, records exactly the counters of the
// unwrapped Solve — the interface-memo counters of EVAL included — and
// returns the same result.
func TestWrappedEngineKeepsCounters(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	h := cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}
	run := func(mode core.Mode, wrap bool) (core.Result, map[string]int64) {
		st := obs.NewStats()
		eng := cqeval.WithStats(cqeval.Auto(), st)
		if wrap {
			eng = wrappedEngine{eng}
		}
		opts := core.SolveOptions{Mode: mode, Engine: eng, Stats: st, Parallelism: 1}
		if mode != core.ModeEnumerate {
			opts.Mapping = h
		}
		res, err := p.Solve(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, st.Snapshot()
	}
	for _, mode := range []core.Mode{core.ModeExact, core.ModeMax, core.ModeEnumerate} {
		plainRes, plain := run(mode, false)
		wrapRes, wrapped := run(mode, true)
		if !reflect.DeepEqual(plainRes, wrapRes) {
			t.Errorf("%v: wrapped result %+v, plain %+v", mode, wrapRes, plainRes)
		}
		if !reflect.DeepEqual(plain, wrapped) {
			t.Errorf("%v: counters differ:\nwrapped: %v\n  plain: %v", mode, wrapped, plain)
		}
		if mode == core.ModeExact && plain["core.interface_memo_misses"] == 0 {
			t.Errorf("EVAL recorded no interface-memo work: %v", plain)
		}
	}
}

// TestUnionWrappedEngineKeepsCounters is TestWrappedEngineKeepsCounters for
// the union decision modes, whose members get the engine already wired.
func TestUnionWrappedEngineKeepsCounters(t *testing.T) {
	u := uwdpt.MustNew(gen.MusicWDPT("x", "y", "z", "zp"), gen.MusicWDPT("x", "y", "z"))
	d := gen.MusicDatabase()
	h := cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}
	for _, mode := range []core.Mode{core.ModeExact, core.ModeMax} {
		var snaps [2]map[string]int64
		for i, wrap := range []bool{false, true} {
			st := obs.NewStats()
			eng := cqeval.WithStats(cqeval.Auto(), st)
			if wrap {
				eng = wrappedEngine{eng}
			}
			if _, err := u.Solve(context.Background(), d, core.SolveOptions{Mode: mode, Mapping: h, Engine: eng, Stats: st}); err != nil {
				t.Fatal(err)
			}
			snaps[i] = st.Snapshot()
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Errorf("%v: counters differ:\nwrapped: %v\n  plain: %v", mode, snaps[1], snaps[0])
		}
	}
}

// unsealedDatabase returns a random E/2, T/3 database whose dictionary is
// left unsealed, with terms interned out of sorted order.
func unsealedDatabase(t *testing.T, seed int64) *db.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := db.New()
	val := func() string { return fmt.Sprintf("c%d", rng.Intn(12)) }
	for i := 0; i < 14; i++ {
		d.Insert("E", val(), val())
		d.Insert("T", val(), val(), val())
	}
	if d.Dict().Sorted() {
		d.Insert("E", "zz", "a") // force an out-of-order intern
	}
	if d.Dict().Sorted() {
		t.Fatal("database dictionary is sealed")
	}
	return d
}

// TestSolveAnswersCanonical: Result.Answers come back in the canonical
// order of cq.CompareMappings, without duplicates, for single trees and
// unions, at P ∈ {1, 8}, through the backtracking solver and an engine, on
// sealed and unsealed databases — so front ends need not sort again.
func TestSolveAnswersCanonical(t *testing.T) {
	engines := map[string]func() cqeval.Engine{
		"solver": func() cqeval.Engine { return nil },
		"auto":   cqeval.Auto,
	}
	for seed := int64(0); seed < 10; seed++ {
		p1 := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2}, seed)
		p2 := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2}, seed+100)
		u := uwdpt.MustNew(p1, p2)
		dbs := map[string]*db.Database{
			"sealed":   gen.RandomDatabase(gen.DBParams{DomainSize: 4, TuplesPerRel: 10}, seed+7),
			"unsealed": unsealedDatabase(t, seed),
		}
		for dname, d := range dbs {
			for ename, mk := range engines {
				for _, mode := range []core.Mode{core.ModeEnumerate, core.ModeMaximal} {
					var ref []cq.Mapping
					for _, par := range []int{1, 8} {
						opts := core.SolveOptions{Mode: mode, Engine: mk(), Parallelism: par}
						for name, s := range map[string]interface {
							Solve(context.Context, *db.Database, core.SolveOptions) (core.Result, error)
						}{"tree": p1, "union": u} {
							res, err := s.Solve(context.Background(), d, opts)
							if err != nil {
								t.Fatal(err)
							}
							for i := 1; i < len(res.Answers); i++ {
								if cq.CompareMappings(res.Answers[i-1], res.Answers[i]) >= 0 {
									t.Fatalf("seed %d %s %s %v P=%d %s: answers %d and %d out of order: %v, %v",
										seed, dname, ename, mode, par, name, i-1, i, res.Answers[i-1], res.Answers[i])
								}
							}
							if name == "tree" {
								if ref == nil {
									ref = res.Answers
								} else if !reflect.DeepEqual(ref, res.Answers) {
									t.Fatalf("seed %d %s %s %v: P=%d answers differ from P=1", seed, dname, ename, mode, par)
								}
							}
						}
					}
				}
			}
		}
	}
}

// chainTree is the depth-deep OPT chain E(start, ?x1) OPT (E(?x1, ?x2) OPT
// (...)) with every chain variable free: the request shape of the
// enumerate benchmark workload.
func chainTree(start string, depth int) *core.PatternTree {
	v := func(i int) cq.Term { return cq.V(fmt.Sprintf("x%d", i)) }
	spec := core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("E", v(depth-1), v(depth))}}
	for k := depth - 1; k >= 2; k-- {
		spec = core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("E", v(k-1), v(k))}, Children: []core.NodeSpec{spec}}
	}
	root := core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("E", cq.C(start), v(1))}, Children: []core.NodeSpec{spec}}
	free := make([]string, depth)
	for i := range free {
		free[i] = fmt.Sprintf("x%d", i+1)
	}
	return core.MustNew(root, free)
}

// maxAllocsPerAnswer bounds the allocations of a sequential enumeration
// with the Auto engine per answer. Measured on the chain below (648
// answers, go1.24): 83.0 when enumeration carried string mappings, 28.5
// with ID rows. The bound leaves ~40% headroom for runtime and map-growth
// variation across Go versions.
const maxAllocsPerAnswer = 40

// TestEnumerateAllocsPerAnswer pins the allocation cost of enumeration: a
// P=1 Solve of a depth-5 OPT chain over a layered graph. Allocation counts
// are deterministic, unlike wall time, so they are the regression gate.
func TestEnumerateAllocsPerAnswer(t *testing.T) {
	d := gen.LayeredDatabase(6, 40, 4, 1)
	p := chainTree(gen.LayeredFirstVertex(), 5)
	eng := cqeval.Auto()
	opts := core.SolveOptions{Mode: core.ModeEnumerate, Engine: eng, Parallelism: 1}
	res, err := p.Solve(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) < 100 {
		t.Fatalf("chain has only %d answers; the pin needs a real enumeration", len(res.Answers))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Solve(context.Background(), d, opts); err != nil {
			t.Fatal(err)
		}
	})
	perAnswer := allocs / float64(len(res.Answers))
	t.Logf("%d answers, %.0f allocations per Solve, %.1f per answer", len(res.Answers), allocs, perAnswer)
	if perAnswer > maxAllocsPerAnswer {
		t.Fatalf("%.1f allocations per answer, bound %d", perAnswer, maxAllocsPerAnswer)
	}
}

// TestLargeTreeSubtrees: trees of more than 64 nodes keep subtree ids past
// the first bitset word. A 70-node OPT path over an 80-edge chain has one
// maximal homomorphism per start vertex, reaching as deep as the chain
// allows; every path is checked against the backtracking solver, the Auto
// engine at P ∈ {1, 8} and EvaluateFunc.
func TestLargeTreeSubtrees(t *testing.T) {
	const depth = 70
	free := make([]string, depth+1)
	for i := range free {
		free[i] = fmt.Sprintf("y%d", i)
	}
	p := gen.PathWDPT(depth, free...)
	if p.NumNodes() <= 64 {
		t.Fatalf("tree has %d nodes; the test needs more than 64", p.NumNodes())
	}
	if n := p.FullSubtree().Len(); n != depth {
		t.Fatalf("full subtree has %d nodes, want %d", n, depth)
	}
	if s, ok := p.MinimalSubtreeContaining([]string{"y70"}); !ok || s.Len() != depth || !s.Has(69) || s.Has(70) {
		t.Fatalf("minimal subtree for y70: ok=%v len=%d", ok, s.Len())
	}
	if n := p.CountSubtrees(0); n != depth {
		t.Fatalf("a path of %d nodes has %d rooted subtrees, want %d", depth, n, depth)
	}
	d := gen.ChainDatabase(80)
	ref, err := p.Solve(context.Background(), d, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Answers) != 80 {
		t.Fatalf("%d answers, want one per edge start (80)", len(ref.Answers))
	}
	for _, h := range ref.Answers {
		var start int
		if _, err := fmt.Sscan(h["y0"], &start); err != nil {
			t.Fatal(err)
		}
		// From vertex start the chain has 80-start edges left.
		if want := min(depth, 80-start) + 1; len(h) != want {
			t.Fatalf("answer from %d binds %d variables, want %d", start, len(h), want)
		}
	}
	for _, par := range []int{1, 8} {
		res, err := p.Solve(context.Background(), d, core.SolveOptions{Engine: cqeval.Auto(), Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Answers, ref.Answers) {
			t.Fatalf("Auto at P=%d differs from the backtracking solver", par)
		}
	}
	var streamed []cq.Mapping
	p.EvaluateFunc(d, func(h cq.Mapping) bool {
		streamed = append(streamed, h)
		return true
	})
	if !reflect.DeepEqual(cq.SortSolutions(streamed), ref.Answers) {
		t.Fatal("EvaluateFunc differs from Solve")
	}
}

// TestConcurrentFirstSolve: goroutines that enumerate one fresh tree at
// once build its row layout and subtree cache together, and all get the
// sequential answers (run under -race).
func TestConcurrentFirstSolve(t *testing.T) {
	d := gen.LayeredDatabase(5, 20, 3, 1)
	want, err := chainTree(gen.LayeredFirstVertex(), 4).Solve(context.Background(), d, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := chainTree(gen.LayeredFirstVertex(), 4)
	results := make([][]cq.Mapping, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := core.SolveOptions{Parallelism: 1 + i%2*7}
			if i%3 == 0 {
				opts.Engine = cqeval.Auto()
			}
			res, err := p.Solve(context.Background(), d, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Answers
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, want.Answers) {
			t.Errorf("goroutine %d: %d answers, want %d", i, len(got), len(want.Answers))
		}
	}
}
