package gen

import (
	"fmt"
	"testing"
	"testing/quick"

	"wdpt/internal/cq"
)

func TestMusicFixturesMatchPaper(t *testing.T) {
	p := MusicWDPT("x", "y", "z", "zp")
	if p.NumNodes() != 3 || len(p.Free()) != 4 {
		t.Fatalf("music tree shape wrong: %s", p)
	}
	d := MusicDatabase()
	if d.Size() != 5 {
		t.Fatalf("Example 2 database has 5 facts, got %d", d.Size())
	}
	if !d.Contains("rating", "Swim", "2") {
		t.Fatal("Swim rating missing")
	}
}

func TestMusicDatabaseLargeDeterministic(t *testing.T) {
	d1 := MusicDatabaseLarge(5, 3, 42)
	d2 := MusicDatabaseLarge(5, 3, 42)
	if d1.String() != d2.String() {
		t.Fatal("generator not deterministic for equal seeds")
	}
	d3 := MusicDatabaseLarge(5, 3, 43)
	if d1.String() == d3.String() {
		t.Fatal("different seeds should give different data")
	}
	// Every record has a band and a publication fact.
	recs := d1.Relation("recorded_by")
	if recs == nil || recs.Len() != 15 {
		t.Fatalf("expected 15 records")
	}
}

func TestGraphOracles(t *testing.T) {
	if !CompleteGraph(3).IsThreeColorable() {
		t.Fatal("K3 is 3-colorable")
	}
	if CompleteGraph(4).IsThreeColorable() {
		t.Fatal("K4 is not 3-colorable")
	}
	for n := 3; n <= 7; n++ {
		if !CycleGraph(n).IsThreeColorable() {
			t.Fatalf("C%d is 3-colorable", n)
		}
	}
	g := RandomGraph(6, 0.5, 1)
	if g.N != 6 {
		t.Fatal("vertex count wrong")
	}
	g2 := RandomGraph(6, 0.5, 1)
	if len(g.Edges) != len(g2.Edges) {
		t.Fatal("random graph not deterministic")
	}
}

func TestThreeColorInstanceShape(t *testing.T) {
	g := CycleGraph(3)
	p, d, h := ThreeColorInstance(g)
	// Root plus 3 children per edge.
	if p.NumNodes() != 1+3*len(g.Edges) {
		t.Fatalf("nodes = %d", p.NumNodes())
	}
	if d.Size() != 3 {
		t.Fatalf("database = %d facts, want c(1,1), c(2,2), c(3,3)", d.Size())
	}
	if h["x"] != "1" || len(h) != 1 {
		t.Fatalf("mapping = %v", h)
	}
	// Free variables: x plus one per (edge, color).
	if got := len(p.Free()); got != 1+3*len(g.Edges) {
		t.Fatalf("free vars = %d", got)
	}
	if !p.GloballyIn(cq.TW(1)) || !p.GloballyIn(cq.HW(1)) {
		t.Fatal("instance must be in g-TW(1) and g-HW(1)")
	}
}

func TestRandomWDPTWellDesigned(t *testing.T) {
	// MustNew validates; the property is that generation never panics and
	// respects the interface bound.
	f := func(seed int64) bool {
		p := RandomWDPT(TreeParams{MaxDepth: 3, MaxChildren: 3, InterfaceBound: 2}, seed)
		return p.NumNodes() >= 1 && p.InterfaceWidth() <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWDPTDeterministic(t *testing.T) {
	p1 := RandomWDPT(TreeParams{}, 7)
	p2 := RandomWDPT(TreeParams{}, 7)
	if p1.String() != p2.String() {
		t.Fatal("random tree not deterministic")
	}
}

func TestRandomDatabaseParams(t *testing.T) {
	d := RandomDatabase(DBParams{DomainSize: 2, TuplesPerRel: 50}, 3)
	e := d.Relation("E")
	if e == nil {
		t.Fatal("missing E")
	}
	// Domain 2 → at most 4 distinct binary tuples despite 50 inserts.
	if e.Len() > 4 {
		t.Fatalf("domain not respected: %d tuples", e.Len())
	}
}

func TestPathAndStarTrees(t *testing.T) {
	p := PathWDPT(3)
	if p.NumNodes() != 3 || len(p.Free()) != 1 {
		t.Fatalf("path tree shape: %s", p)
	}
	if p.InterfaceWidth() != 1 || !p.LocallyIn(cq.TW(1)) {
		t.Fatal("path tree should be ℓ-TW(1) ∩ BI(1)")
	}
	s := StarWDPT(4)
	if s.NumNodes() != 5 || len(s.Free()) != 5 {
		t.Fatalf("star tree shape: %s", s)
	}
	if s.InterfaceWidth() != 1 {
		t.Fatalf("star interface = %d", s.InterfaceWidth())
	}
}

func TestChainDatabase(t *testing.T) {
	d := ChainDatabase(3)
	if !d.Contains("E", "0", "1") || !d.Contains("V", "3") {
		t.Fatal("chain database contents wrong")
	}
}

func TestLayeredDatabase(t *testing.T) {
	d := LayeredDatabase(3, 4, 2, 1)
	if !d.Contains("V", LayeredFirstVertex()) {
		t.Fatal("first vertex missing")
	}
	// Edges only go forward: no edge into layer 0.
	e := d.Relation("E")
	for i := 0; i < e.Len(); i++ {
		if dst := d.Dict().Term(e.At(i, 1)); dst[:2] == "L0" {
			t.Fatalf("backward edge into %s", dst)
		}
	}
	// Deterministic.
	if d.String() != LayeredDatabase(3, 4, 2, 1).String() {
		t.Fatal("not deterministic")
	}
}

func TestBipartiteDatabaseAcyclic(t *testing.T) {
	d := BipartiteDatabase(5, 3, 2)
	e := d.Relation("E")
	for i := 0; i < e.Len(); i++ {
		src, dst := d.Dict().Term(e.At(i, 0)), d.Dict().Term(e.At(i, 1))
		if src[0] != 'l' || dst[0] != 'r' {
			t.Fatalf("non-bipartite edge (%s, %s)", src, dst)
		}
	}
}

func TestFixtureTrees(t *testing.T) {
	c4 := DirectedCycleTree(4)
	if got := len(c4.AllAtoms()); got != 5 {
		t.Fatalf("directed cycle atoms = %d", got)
	}
	if c4.GloballyIn(cq.TW(1)) {
		t.Fatal("directed 4-cycle is not TW(1)")
	}
	if !c4.GloballyIn(cq.TW(2)) {
		t.Fatal("directed 4-cycle is TW(2)")
	}
	sym := SymmetricCycleTree(3)
	if got := len(sym.AllAtoms()); got != 7 {
		t.Fatalf("symmetric cycle atoms = %d", got)
	}
	tri := TriangleWithPath(2)
	if tri.HasConstants() {
		t.Fatal("triangle fixture must be constant-free")
	}
	if got := len(tri.Free()); got != 1 || tri.Free()[0] != "x" {
		t.Fatalf("free vars = %v", tri.Free())
	}
}

func TestFigure2Shapes(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, k := range []int{2, 3} {
			p1 := Figure2P1(n, k)
			p2 := Figure2P2(n, k)
			if p1.NumNodes() != n+2 || p2.NumNodes() != n+2 {
				t.Fatalf("n=%d k=%d: node counts %d, %d", n, k, p1.NumNodes(), p2.NumNodes())
			}
			// p2's first leaf has exactly 2^n e-atoms plus a0.
			leaf := p2.Root().Children()[0]
			if got := len(leaf.Atoms()); got != 1+(1<<uint(n)) {
				t.Fatalf("n=%d: first leaf atoms = %d", n, got)
			}
			// Free variables agree between the pair.
			if fmt.Sprint(p1.Free()) != fmt.Sprint(p2.Free()) {
				t.Fatal("free tuples differ")
			}
		}
	}
}

// TestSeedPlumbing pins the reproducibility contract of every seeded
// generator: equal seeds yield byte-identical artifacts, distinct seeds
// yield distinct ones, and no generator shares RNG state with another (two
// interleaved constructions agree with two isolated ones).
func TestSeedPlumbing(t *testing.T) {
	params := TreeParams{MaxDepth: 3, MaxChildren: 3, ConstProb: 0.2}
	if RandomWDPT(params, 7).String() != RandomWDPT(params, 7).String() {
		t.Fatal("RandomWDPT: equal seeds differ")
	}
	if RandomWDPT(params, 7).String() == RandomWDPT(params, 8).String() {
		t.Fatal("RandomWDPT: distinct seeds agree")
	}
	dbp := DBParams{DomainSize: 6, TuplesPerRel: 12}
	if RandomDatabase(dbp, 3).String() != RandomDatabase(dbp, 3).String() {
		t.Fatal("RandomDatabase: equal seeds differ")
	}
	if LayeredDatabase(3, 10, 2, 5).String() != LayeredDatabase(3, 10, 2, 5).String() {
		t.Fatal("LayeredDatabase: equal seeds differ")
	}
	if BipartiteDatabase(8, 2, 9).String() != BipartiteDatabase(8, 2, 9).String() {
		t.Fatal("BipartiteDatabase: equal seeds differ")
	}
	// Isolation: interleaving two generators must not change either result.
	wantTree := RandomWDPT(params, 11).String()
	wantDB := RandomDatabase(dbp, 11).String()
	gotTree := RandomWDPT(params, 11)
	gotDB := RandomDatabase(dbp, 11)
	if gotTree.String() != wantTree || gotDB.String() != wantDB {
		t.Fatal("generators share RNG state")
	}
}
