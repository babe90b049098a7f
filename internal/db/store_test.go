package db

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestTupleKeyCollision is the regression test for the historical "\x00"
// separator hazard: ("a\x00b", "c") and ("a", "b\x00c") used to pack to the
// same membership key, so the second insert was silently dropped. The
// fixed-width ID key distinguishes them.
func TestTupleKeyCollision(t *testing.T) {
	d := New()
	if !d.Insert("R", "a\x00b", "c") {
		t.Fatal("first insert not new")
	}
	if !d.Insert("R", "a", "b\x00c") {
		t.Fatal("colliding insert dropped — separator hazard is back")
	}
	r := d.Relation("R")
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !d.Contains("R", "a\x00b", "c") || !d.Contains("R", "a", "b\x00c") {
		t.Fatal("membership lost a colliding tuple")
	}
	if d.Contains("R", "a\x00b", "b\x00c") {
		t.Fatal("phantom tuple from key aliasing")
	}
}

// TestAppendRowKey checks the fixed-width packed key: distinct rows pack to
// distinct keys and equal rows to equal keys.
func TestAppendRowKey(t *testing.T) {
	rows := [][]uint32{{0, 0}, {0, 1}, {1, 0}, {256, 0}, {0, 256}, {NoID, NoID}}
	seen := map[string][]uint32{}
	for _, row := range rows {
		k := string(AppendRowKey(nil, row))
		if len(k) != 8 {
			t.Fatalf("key of %v is %d bytes, want 8", row, len(k))
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("rows %v and %v pack to the same key", prev, row)
		}
		seen[k] = row
	}
}

func TestDictInternAndLookup(t *testing.T) {
	d := NewDict()
	ids := map[string]uint32{}
	for _, s := range []string{"b", "a", "c", "b"} {
		ids[s] = d.Intern(s)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for s, id := range ids {
		if got, ok := d.ID(s); !ok || got != id {
			t.Fatalf("ID(%q) = %d,%v, want %d,true", s, got, ok, id)
		}
		if d.Term(id) != s {
			t.Fatalf("Term(%d) = %q, want %q", id, d.Term(id), s)
		}
	}
	if id, ok := d.ID("missing"); ok || id != NoID {
		t.Fatalf("ID(missing) = %d,%v, want NoID,false", id, ok)
	}
}

// TestSealCanonicalizes checks that Seal makes term-ID order equal string
// order regardless of insertion order, remaps the stored rows consistently,
// and is idempotent.
func TestSealCanonicalizes(t *testing.T) {
	d := New()
	d.Insert("E", "zeta", "mu")
	d.Insert("E", "alpha", "zeta")
	d.Seal()
	dict := d.Dict()
	if !sort.StringsAreSorted(dict.Terms()) {
		t.Fatalf("dict not sorted after Seal: %v", dict.Terms())
	}
	r := d.Relation("E")
	if !d.Contains("E", "zeta", "mu") || !d.Contains("E", "alpha", "zeta") {
		t.Fatal("rows lost in remap")
	}
	id, _ := dict.ID("zeta")
	if got := len(r.MatchingIDs(0, id)); got != 1 {
		t.Fatalf("MatchingIDs(0, zeta) = %d rows, want 1", got)
	}
	before := dict.Terms()
	d.Seal() // idempotent: already sorted, nothing moves
	if !reflect.DeepEqual(before, dict.Terms()) {
		t.Fatal("second Seal changed the dictionary")
	}
	if !d.Contains("E", "alpha", "zeta") {
		t.Fatal("second Seal broke membership")
	}
}

// TestMatchingIDsInsertionOrder pins the index contract: offsets come back
// in insertion order, including after an index-invalidating insert.
func TestMatchingIDsInsertionOrder(t *testing.T) {
	d := New()
	d.Insert("E", "a", "x")
	d.Insert("E", "b", "y")
	d.Insert("E", "a", "z")
	r := d.Relation("E")
	id, _ := d.Dict().ID("a")
	if got := r.MatchingIDs(0, id); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("MatchingIDs = %v, want [0 2]", got)
	}
	d.Insert("E", "a", "w")
	if got := r.MatchingIDs(0, id); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("after insert MatchingIDs = %v, want [0 2 3]", got)
	}
	// Probing with NoID or an out-of-range ID matches nothing — the
	// ID-level analogue of an unknown constant.
	if len(r.MatchingIDs(1, NoID)) != 0 {
		t.Fatal("NoID probe matched rows")
	}
	if r.ContainsIDs([]uint32{NoID, 0}) {
		t.Fatal("ContainsIDs(NoID, ...) = true")
	}
}

// rowModel is the test-local reference for a relation: the distinct rows
// in insertion order plus the set of their packed keys, with index probes
// answered by linear scan. It interns constants into its own numbering, so
// it shares no state with the dictionary or the column store under test.
type rowModel struct {
	ids  map[string]uint32
	rows []Tuple
	keys map[string]bool
}

func newRowModel() *rowModel {
	return &rowModel{ids: map[string]uint32{}, keys: map[string]bool{}}
}

func (m *rowModel) key(t Tuple) string {
	var row []uint32
	for _, c := range t {
		id, ok := m.ids[c]
		if !ok {
			id = uint32(len(m.ids))
			m.ids[c] = id
		}
		row = append(row, id)
	}
	return string(AppendRowKey(nil, row))
}

func (m *rowModel) insert(t Tuple) bool {
	k := m.key(t)
	if m.keys[k] {
		return false
	}
	m.keys[k] = true
	m.rows = append(m.rows, t)
	return true
}

func (m *rowModel) contains(t Tuple) bool { return m.keys[m.key(t)] }

func (m *rowModel) matching(pos int, c string) []int {
	var out []int
	for i, t := range m.rows {
		if t[pos] == c {
			out = append(out, i)
		}
	}
	return out
}

// TestStoreMatchesModel drives a random workload, separator-colliding
// constants included, into a relation and into rowModel, and checks every
// read surface agrees before and after Seal renumbers the rows: insert
// newness, Len, Scan, MatchingIDs, Contains and ContainsIDs.
func TestStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	consts := []string{"a", "b", "c", "d", "e\x00f", "e", "\x00f", ""}
	pick := func() Tuple {
		return Tuple{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
	}
	d, m := New(), newRowModel()
	for i := 0; i < 300; i++ {
		t3 := pick()
		if got, want := d.Insert("T", t3...), m.insert(t3); got != want {
			t.Fatalf("insert %q: new = %v, model says %v", t3, got, want)
		}
	}
	check := func(stage string) {
		r := d.Relation("T")
		dict := d.Dict()
		if r.Len() != len(m.rows) {
			t.Fatalf("%s: Len = %d, model holds %d", stage, r.Len(), len(m.rows))
		}
		for i, want := range m.rows {
			got := make(Tuple, 0, 3)
			for _, id := range r.Scan(i) {
				got = append(got, dict.Term(id))
			}
			if !got.Equal(want) {
				t.Fatalf("%s: Scan(%d) = %q, model row %q", stage, i, got, want)
			}
		}
		for pos := 0; pos < 3; pos++ {
			for _, c := range consts {
				id, _ := dict.ID(c)
				got, want := r.MatchingIDs(pos, id), m.matching(pos, c)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: MatchingIDs(%d, %q) = %v, model %v", stage, pos, c, got, want)
				}
			}
		}
		for i := 0; i < 100; i++ {
			probe := pick()
			want := m.contains(probe)
			if got := d.Contains("T", probe...); got != want {
				t.Fatalf("%s: Contains(%q) = %v, model %v", stage, probe, got, want)
			}
			var row []uint32
			for _, c := range probe {
				id, _ := dict.ID(c)
				row = append(row, id)
			}
			if got := r.ContainsIDs(row); got != want {
				t.Fatalf("%s: ContainsIDs(%q) = %v, model %v", stage, probe, got, want)
			}
		}
	}
	check("unsealed")
	d.Seal()
	check("sealed")
}
