package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
)

// TestExample2 reproduces Example 2: the evaluation of the Figure 1 WDPT
// over the five-triple music database consists of exactly μ1 and μ2.
func TestExample2(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	answers := p.Evaluate(d)
	mu1 := cq.Mapping{"x": "Our_love", "y": "Caribou"}
	mu2 := cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}
	if len(answers) != 2 {
		t.Fatalf("answers = %v, want {μ1, μ2}", answers)
	}
	set := cq.NewMappingSet()
	for _, h := range answers {
		set.Add(h)
	}
	if !set.Contains(mu1) || !set.Contains(mu2) {
		t.Fatalf("answers = %v, want μ1=%v and μ2=%v", answers, mu1, mu2)
	}
}

// TestExample3 reproduces Example 3: projecting out x restricts μ1, μ2 to
// μ1' = {y: Caribou} and μ2' = {y: Caribou, z: 2} — and both remain
// answers although μ1' ⊏ μ2'.
func TestExample3(t *testing.T) {
	p := gen.MusicWDPT("y", "z", "zp")
	d := gen.MusicDatabase()
	answers := p.Evaluate(d)
	mu1p := cq.Mapping{"y": "Caribou"}
	mu2p := cq.Mapping{"y": "Caribou", "z": "2"}
	if len(answers) != 2 {
		t.Fatalf("answers = %v, want {μ1', μ2'}", answers)
	}
	set := cq.NewMappingSet()
	for _, h := range answers {
		set.Add(h)
	}
	if !set.Contains(mu1p) || !set.Contains(mu2p) {
		t.Fatalf("answers = %v, want μ1'=%v, μ2'=%v", answers, mu1p, mu2p)
	}
}

// TestExample7 reproduces Example 7: under the maximal-mappings semantics
// with free variables {y, z}, only μ2 survives.
func TestExample7(t *testing.T) {
	p := gen.MusicWDPT("y", "z")
	d := gen.MusicDatabase()
	max := p.EvaluateMaximal(d)
	if len(max) != 1 {
		t.Fatalf("p_m(D) = %v, want exactly μ2", max)
	}
	if !max[0].Equal(cq.Mapping{"y": "Caribou", "z": "2"}) {
		t.Fatalf("p_m(D) = %v", max)
	}
	// Both μ1 and μ2 are still in p(D).
	if got := len(p.Evaluate(d)); got != 2 {
		t.Fatalf("p(D) = %d answers, want 2", got)
	}
}

func TestEvalDecisionMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	cases := []struct {
		h    cq.Mapping
		want bool
	}{
		{cq.Mapping{"x": "Our_love", "y": "Caribou"}, true},
		{cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}, true},
		// Not maximal: Swim extends with its rating.
		{cq.Mapping{"x": "Swim", "y": "Caribou"}, false},
		// Wrong value.
		{cq.Mapping{"x": "Swim", "y": "Nobody", "z": "2"}, false},
		// Binding a non-free variable name.
		{cq.Mapping{"w": "Swim"}, false},
	}
	for i, c := range cases {
		if got := p.Eval(d, c.h); got != c.want {
			t.Fatalf("case %d: Eval(%v) = %v, want %v", i, c.h, got, c.want)
		}
		if got := p.EvalInterface(d, c.h, eng); got != c.want {
			t.Fatalf("case %d: EvalInterface(%v) = %v, want %v", i, c.h, got, c.want)
		}
	}
}

func TestPartialEvalMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	// {x: Swim, y: Caribou} is not an exact answer but is a partial one.
	h := cq.Mapping{"x": "Swim", "y": "Caribou"}
	if p.Eval(d, h) {
		t.Fatal("should not be an exact answer")
	}
	if !p.PartialEval(d, h, eng) {
		t.Fatal("should be a partial answer")
	}
	if !p.PartialEvalEnumerate(d, h) {
		t.Fatal("enumeration baseline disagrees")
	}
	// z' never matches: no partial answer binds zp.
	if p.PartialEval(d, cq.Mapping{"zp": "1970"}, eng) {
		t.Fatal("zp has no match in the database")
	}
	// Non-free variable.
	if p.PartialEval(d, cq.Mapping{"nonfree": "1"}, eng) {
		t.Fatal("non-free variable accepted")
	}
	// The empty mapping is a partial answer iff p(D) is nonempty.
	if !p.PartialEval(d, cq.Mapping{}, eng) {
		t.Fatal("empty mapping should be a partial answer")
	}
}

func TestMaxEvalMusic(t *testing.T) {
	p := gen.MusicWDPT("y", "z")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	if !p.MaxEval(d, cq.Mapping{"y": "Caribou", "z": "2"}, eng) {
		t.Fatal("μ2 should be a maximal answer")
	}
	if p.MaxEval(d, cq.Mapping{"y": "Caribou"}, eng) {
		t.Fatal("μ1' is subsumed by μ2'")
	}
	if p.MaxEval(d, cq.Mapping{"y": "Nobody"}, eng) {
		t.Fatal("not even a partial answer")
	}
}

// TestProposition3 exercises the 3-colorability reduction: h ∈ p(D) iff the
// graph is 3-colorable, for both the naive and the interface engines.
func TestProposition3(t *testing.T) {
	graphs := []struct {
		name string
		g    gen.Graph
		want bool
	}{
		{"triangle", gen.CompleteGraph(3), true},
		{"K4", gen.CompleteGraph(4), false},
		{"C5", gen.CycleGraph(5), true},
		{"single-edge", gen.Graph{N: 2, Edges: [][2]int{{0, 1}}}, true},
	}
	eng := cqeval.Auto()
	for _, tc := range graphs {
		if tc.g.IsThreeColorable() != tc.want {
			t.Fatalf("%s: oracle wrong", tc.name)
		}
		p, d, h := gen.ThreeColorInstance(tc.g)
		if !p.GloballyIn(cq.TW(1)) {
			t.Fatalf("%s: reduction instance should be in g-TW(1)", tc.name)
		}
		if got := p.Eval(d, h); got != tc.want {
			t.Fatalf("%s: Eval = %v, want %v", tc.name, got, tc.want)
		}
		if got := p.EvalInterface(d, h, eng); got != tc.want {
			t.Fatalf("%s: EvalInterface = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestProposition3Random cross-checks the reduction against the oracle on
// random graphs.
func TestProposition3Random(t *testing.T) {
	eng := cqeval.Auto()
	for seed := int64(0); seed < 12; seed++ {
		g := gen.RandomGraph(5, 0.6, seed)
		p, d, h := gen.ThreeColorInstance(g)
		want := g.IsThreeColorable()
		if got := p.EvalInterface(d, h, eng); got != want {
			t.Fatalf("seed %d: EvalInterface = %v, want %v", seed, got, want)
		}
	}
}

// randomMapping picks a plausible query mapping: with some probability the
// projection of an actual answer (possibly truncated), otherwise random
// bindings of free variables.
func randomMapping(rng *rand.Rand, p *core.PatternTree, d *db.Database) cq.Mapping {
	free := p.Free()
	if rng.Intn(2) == 0 {
		answers := p.Evaluate(d)
		if len(answers) > 0 {
			h := answers[rng.Intn(len(answers))].Clone()
			// Possibly truncate to get partial/non-exact mappings.
			for v := range h {
				if rng.Intn(3) == 0 {
					delete(h, v)
				}
			}
			return h
		}
	}
	adom := d.Dict().Terms() // sorted: the generated databases are sealed
	h := cq.Mapping{}
	for _, x := range free {
		if rng.Intn(2) == 0 && len(adom) > 0 {
			h[x] = adom[rng.Intn(len(adom))]
		}
	}
	return h
}

// TestEvalEnginesAgreeProperty is the central cross-validation of the WDPT
// semantics: on random trees, databases, and mappings, the naive band
// enumeration (Eval), the Theorem 6 interface algorithm (EvalInterface), and
// direct membership in the enumerated p(D) must all agree; similarly
// PARTIAL-EVAL and MAX-EVAL must agree with their definitional versions
// computed from p(D).
func TestEvalEnginesAgreeProperty(t *testing.T) {
	engs := []cqeval.Engine{cqeval.Naive(), cqeval.Auto(), cqeval.Decomposition()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 2, FreshVarsPerNode: 2}, seed)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 7}, seed+1)
		h := randomMapping(rng, p, d)

		answers := p.Evaluate(d)
		inAnswers := false
		for _, a := range answers {
			if a.Equal(h) {
				inAnswers = true
				break
			}
		}
		if got := p.Eval(d, h); got != inAnswers {
			t.Logf("seed %d: Eval=%v membership=%v h=%v tree:\n%s\ndb:\n%s", seed, got, inAnswers, h, p, d)
			return false
		}
		wantPartial := false
		for _, a := range answers {
			if h.SubsumedBy(a) {
				wantPartial = true
				break
			}
		}
		wantMax := inAnswers
		if wantMax {
			for _, a := range answers {
				if h.ProperlySubsumedBy(a) {
					wantMax = false
					break
				}
			}
		}
		for _, eng := range engs {
			if got := p.EvalInterface(d, h, eng); got != inAnswers {
				t.Logf("seed %d eng %s: EvalInterface=%v want %v h=%v tree:\n%s\ndb:\n%s",
					seed, eng.Name(), got, inAnswers, h, p, d)
				return false
			}
			if got := p.PartialEval(d, h, eng); got != wantPartial {
				t.Logf("seed %d eng %s: PartialEval=%v want %v h=%v tree:\n%s\ndb:\n%s",
					seed, eng.Name(), got, wantPartial, h, p, d)
				return false
			}
			if got := p.MaxEval(d, h, eng); got != wantMax {
				t.Logf("seed %d eng %s: MaxEval=%v want %v h=%v tree:\n%s\ndb:\n%s",
					seed, eng.Name(), got, wantMax, h, p, d)
				return false
			}
		}
		if got := p.PartialEvalEnumerate(d, h); got != wantPartial {
			t.Logf("seed %d: PartialEvalEnumerate=%v want %v", seed, got, wantPartial)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxEvalAgainstEnumeration checks p_m(D) membership against MaxEval on
// every enumerated answer.
func TestMaxEvalAgainstEnumeration(t *testing.T) {
	eng := cqeval.Auto()
	for seed := int64(0); seed < 15; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2}, seed)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, seed*7+1)
		maximal := cq.NewMappingSet()
		for _, h := range p.EvaluateMaximal(d) {
			maximal.Add(h)
		}
		for _, h := range p.Evaluate(d) {
			want := maximal.Contains(h)
			if got := p.MaxEval(d, h, eng); got != want {
				t.Fatalf("seed %d: MaxEval(%v) = %v, want %v\ntree:\n%s", seed, h, got, want, p)
			}
		}
	}
}

// TestProjectionFreeSemantics: for projection-free WDPTs every answer is
// maximal (Section 3.4), so p(D) = p_m(D).
func TestProjectionFreeSemantics(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, FreeProb: 1.0}, seed)
		if !p.IsProjectionFree() {
			continue
		}
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, seed+100)
		all := p.Evaluate(d)
		max := p.EvaluateMaximal(d)
		if len(all) != len(max) {
			t.Fatalf("seed %d: projection-free p(D)=%d but p_m(D)=%d", seed, len(all), len(max))
		}
	}
}

// TestCQSpecialCase: a single-node WDPT evaluates exactly like its CQ; for
// CQs, EVAL, PARTIAL-EVAL and MAX-EVAL coincide on exact answers
// (Section 5 remark).
func TestCQSpecialCase(t *testing.T) {
	q := cq.MustNew([]string{"x", "z"}, []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")),
		cq.NewAtom("E", cq.V("y"), cq.V("z")),
	})
	p := core.FromCQ(q)
	d := gen.ChainDatabase(5)
	eng := cqeval.Auto()
	want := q.Evaluate(d)
	got := p.Evaluate(d)
	if len(want) != len(got) {
		t.Fatalf("CQ answers %d, WDPT answers %d", len(want), len(got))
	}
	for _, h := range want {
		if !p.Eval(d, h) || !p.PartialEval(d, h, eng) || !p.MaxEval(d, h, eng) {
			t.Fatalf("answer %v not recognized by all three problems", h)
		}
	}
}

func TestEvalRejectsMalformedMappings(t *testing.T) {
	p := gen.MusicWDPT("x", "y")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	// z is a variable of the tree but not free.
	for _, h := range []cq.Mapping{
		{"z": "2"},
		{"x": "Swim", "unknown": "1"},
	} {
		if p.Eval(d, h) || p.EvalInterface(d, h, eng) || p.PartialEval(d, h, eng) || p.MaxEval(d, h, eng) {
			t.Fatalf("malformed mapping %v accepted", h)
		}
	}
}

func TestStarWDPTEvaluation(t *testing.T) {
	p := gen.StarWDPT(3)
	d := db.New()
	d.Insert("V", "a")
	d.Insert("E", "a", "b")
	eng := cqeval.Auto()
	// Answer: x=a with z0=z1=z2=b is maximal; x=a alone is not an answer.
	full := cq.Mapping{"x": "a", "z0": "b", "z1": "b", "z2": "b"}
	if !p.Eval(d, full) || !p.EvalInterface(d, full, eng) {
		t.Fatal("full star answer missing")
	}
	if p.Eval(d, cq.Mapping{"x": "a"}) {
		t.Fatal("non-maximal star answer accepted")
	}
	d2 := db.New()
	d2.Insert("V", "lonely")
	if !p.Eval(d2, cq.Mapping{"x": "lonely"}) {
		t.Fatal("isolated vertex answer missing")
	}
}

func TestEvaluateLargerMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabaseLarge(20, 3, 42)
	answers := p.Evaluate(d)
	eng := cqeval.Auto()
	if len(answers) == 0 {
		t.Fatal("expected answers on the large music db")
	}
	for _, h := range answers[:min(10, len(answers))] {
		if !p.EvalInterface(d, h, eng) {
			t.Fatalf("EvalInterface rejects enumerated answer %v", h)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestChainDatabasePathWDPT(t *testing.T) {
	// PathWDPT over a chain: the single maximal answer goes all the way.
	p := gen.PathWDPT(3, "y0", "y1", "y2", "y3")
	d := gen.ChainDatabase(5)
	eng := cqeval.Auto()
	h := cq.Mapping{"y0": "0", "y1": "1", "y2": "2", "y3": "3"}
	if !p.Eval(d, h) || !p.EvalInterface(d, h, eng) {
		t.Fatal("full chain answer missing")
	}
	// Truncated mapping is not exact (extension exists) but is partial.
	ht := cq.Mapping{"y0": "0", "y1": "1"}
	if p.Eval(d, ht) {
		t.Fatal("truncated chain should not be exact")
	}
	if !p.PartialEval(d, ht, eng) {
		t.Fatal("truncated chain should be partial")
	}
	_ = fmt.Sprint()
}
