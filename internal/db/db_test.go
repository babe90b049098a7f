package db

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("R", 2)
	if !r.Insert(Tuple{"a", "b"}) {
		t.Fatal("first insert should report new")
	}
	if r.Insert(Tuple{"a", "b"}) {
		t.Fatal("duplicate insert should report old")
	}
	if r.Len() != 1 {
		t.Fatalf("got %d tuples, want 1", r.Len())
	}
	if !r.Contains(Tuple{"a", "b"}) || r.Contains(Tuple{"b", "a"}) {
		t.Fatal("contains is wrong")
	}
}

func TestRelationArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inserting wrong arity should panic")
		}
	}()
	r := NewRelation("R", 2)
	r.Insert(Tuple{"a"})
}

func TestZeroArityRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero arity should panic")
		}
	}()
	NewRelation("R", 0)
}

// matching probes r's index for the string constant c, resolving it
// through the relation's dictionary the way evaluation code does.
func matching(r *Relation, pos int, c string) []int {
	id, _ := r.Dict().ID(c)
	return r.MatchingIDs(pos, id)
}

func TestMatchingIndex(t *testing.T) {
	r := NewRelation("E", 2)
	r.Insert(Tuple{"a", "b"})
	r.Insert(Tuple{"a", "c"})
	r.Insert(Tuple{"b", "c"})
	if got := len(matching(r, 0, "a")); got != 2 {
		t.Fatalf("matching(0,a) = %d rows, want 2", got)
	}
	if got := len(matching(r, 1, "c")); got != 2 {
		t.Fatalf("matching(1,c) = %d rows, want 2", got)
	}
	if got := len(matching(r, 0, "zzz")); got != 0 {
		t.Fatalf("matching(0,zzz) = %d rows, want 0", got)
	}
	// Index must be rebuilt after inserts.
	r.Insert(Tuple{"a", "d"})
	if got := len(matching(r, 0, "a")); got != 3 {
		t.Fatalf("after insert matching(0,a) = %d rows, want 3", got)
	}
}

func TestDatabaseBasics(t *testing.T) {
	d := New()
	d.Insert("E", "a", "b")
	d.Insert("E", "b", "c")
	d.Insert("V", "a")
	if d.Size() != 3 {
		t.Fatalf("Size = %d, want 3", d.Size())
	}
	if !d.Contains("E", "a", "b") {
		t.Fatal("missing E(a,b)")
	}
	if d.Contains("E", "c", "a") {
		t.Fatal("unexpected E(c,a)")
	}
	if d.Contains("X", "a") {
		t.Fatal("unknown relation should be empty")
	}
	d.Seal()
	adom := d.Dict().Terms()
	if len(adom) != 3 || adom[0] != "a" || adom[1] != "b" || adom[2] != "c" {
		t.Fatalf("sealed active domain = %v, want [a b c]", adom)
	}
	rels := d.Relations()
	if len(rels) != 2 || rels[0].Name() != "E" || rels[1].Name() != "V" {
		t.Fatalf("Relations order wrong: %v", rels)
	}
}

// TestDictTracksInserts checks that the active domain — the dictionary's
// terms, since only Insert interns — tracks inserts made after a Seal, and
// that the next Seal restores sorted order.
func TestDictTracksInserts(t *testing.T) {
	d := New()
	d.Insert("E", "b", "c")
	d.Seal()
	d.Insert("E", "a", "d")
	if got := d.Dict().Len(); got != 4 {
		t.Fatalf("active domain after insert = %d constants, want 4", got)
	}
	d.Seal()
	if got := d.Dict().Terms(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("active domain after reseal = %v, want [a b c d]", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := New()
	d.Insert("E", "a", "b")
	c := d.Clone()
	c.Insert("E", "x", "y")
	if d.Size() != 1 || c.Size() != 2 {
		t.Fatalf("clone not independent: d=%d c=%d", d.Size(), c.Size())
	}
}

func TestMerge(t *testing.T) {
	d := New()
	d.Insert("E", "a", "b")
	e := New()
	e.Insert("E", "a", "b")
	e.Insert("F", "c")
	d.Merge(e)
	if d.Size() != 2 {
		t.Fatalf("Size after merge = %d, want 2", d.Size())
	}
}

func TestString(t *testing.T) {
	d := New()
	d.Insert("E", "b", "c")
	d.Insert("E", "a", "b")
	want := "E(a, b)\nE(b, c)"
	if got := d.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestTripleStore(t *testing.T) {
	ts := NewTripleStore("triple")
	ts.Add("s", "p", "o")
	if !ts.Has("s", "p", "o") || ts.Has("o", "p", "s") {
		t.Fatal("triple membership wrong")
	}
	if ts.RelName() != "triple" {
		t.Fatal("wrong relation name")
	}
	if r := ts.Relation("triple"); r == nil || r.Arity() != 3 {
		t.Fatal("underlying relation wrong")
	}
}

func TestTupleEqualAndString(t *testing.T) {
	a := Tuple{"x", "y"}
	if !a.Equal(Tuple{"x", "y"}) || a.Equal(Tuple{"x"}) || a.Equal(Tuple{"x", "z"}) {
		t.Fatal("Tuple.Equal wrong")
	}
	if a.String() != "(x, y)" {
		t.Fatalf("Tuple.String = %q", a.String())
	}
}

// Property: the per-position index agrees with a linear scan.
func TestIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation("R", 3)
		consts := []string{"a", "b", "c", "d"}
		for i := 0; i < 40; i++ {
			r.Insert(Tuple{
				consts[rng.Intn(len(consts))],
				consts[rng.Intn(len(consts))],
				consts[rng.Intn(len(consts))],
			})
		}
		for pos := 0; pos < 3; pos++ {
			for _, c := range consts {
				want := 0
				for i := 0; i < r.Len(); i++ {
					if r.Dict().Term(r.Scan(i)[pos]) == c {
						want++
					}
				}
				if got := len(matching(r, pos, c)); got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReaders is the -race regression test for the lazy index:
// before the atomic-pointer publication, concurrent readers raced on
// building it (Insert set it nil; every reader rebuilt in place). Under
// `go test -race` this test fails on the old representation and passes on
// the copy-on-read one.
func TestConcurrentReaders(t *testing.T) {
	d := New()
	for i := 0; i < 200; i++ {
		d.Insert("E", tupleConst(i), tupleConst((i*7+1)%200))
		d.Insert("L", tupleConst(i))
	}
	r := d.Relation("E")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := tupleConst((g*13 + i) % 200)
				if len(matching(r, 0, v)) == 0 {
					t.Errorf("matching(0, %s) empty", v)
				}
				if !d.Contains("L", v) {
					t.Errorf("Contains(L, %s) false", v)
				}
				if d.Dict().Len() != 200 {
					t.Errorf("active domain size changed")
				}
			}
		}(g)
	}
	wg.Wait()

	// Insert still invalidates: new tuples are visible to the next reader.
	d.Insert("E", "fresh", "fresh")
	if len(matching(r, 0, "fresh")) != 1 {
		t.Fatal("index not invalidated by Insert")
	}
	if got := d.Dict().Len(); got != 201 {
		t.Fatalf("active domain = %d constants, want 201", got)
	}
}

func tupleConst(i int) string { return "c" + strconv.Itoa(i) }
