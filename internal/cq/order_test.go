package cq

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"wdpt/internal/db"
)

// orderVars is the variable universe of the ordering properties, sorted by
// name. It holds names that are prefixes of one another ("x" < "x1" <
// "x10"), so slot order must follow byte order of names, not length.
var orderVars = []string{"a", "x", "x1", "x10", "xy", "y"}

// orderTerms are the values; "" and prefix pairs ("b" < "b1") included.
var orderTerms = []string{"", "a", "ab", "b", "b1", "c"}

// unsealedDict interns orderTerms in reverse order, so raw ID order is the
// opposite of term order — the case where comparing IDs would be wrong.
func unsealedDict(t *testing.T) *db.Dict {
	t.Helper()
	dict := db.NewDict()
	for i := len(orderTerms) - 1; i >= 0; i-- {
		dict.Intern(orderTerms[i])
	}
	if dict.Sorted() {
		t.Fatal("test dictionary is sealed; the property needs raw ID order ≠ term order")
	}
	return dict
}

// randomOrderPair draws two mappings over orderVars. Depending on the mode
// they are independent, the second extends the first with variables that
// sort after all of the first's (so the first's entries are a strict
// prefix of the second's), or the second differs from the first in one
// value.
func randomOrderPair(rng *rand.Rand) (Mapping, Mapping) {
	draw := func() Mapping {
		h := Mapping{}
		for _, v := range orderVars {
			if rng.Intn(2) == 0 {
				h[v] = orderTerms[rng.Intn(len(orderTerms))]
			}
		}
		return h
	}
	a := draw()
	switch rng.Intn(3) {
	case 0:
		return a, draw()
	case 1:
		b := a.Clone()
		last := -1
		for i, v := range orderVars {
			if _, ok := a[v]; ok {
				last = i
			}
		}
		for _, v := range orderVars[last+1:] {
			if len(b) == len(a) || rng.Intn(2) == 0 {
				b[v] = orderTerms[rng.Intn(len(orderTerms))]
			}
		}
		return a, b
	default:
		b := a.Clone()
		for _, v := range orderVars {
			if _, ok := b[v]; ok {
				b[v] = orderTerms[rng.Intn(len(orderTerms))]
				break
			}
		}
		return a, b
	}
}

// idRow encodes h as a row over orderVars with db.NoID for unbound slots.
func idRow(dict *db.Dict, h Mapping) []uint32 {
	row := make([]uint32, len(orderVars))
	for i, v := range orderVars {
		row[i] = db.NoID
		if c, ok := h[v]; ok {
			row[i] = dict.Intern(c)
		}
	}
	return row
}

// TestCompareIDRowsMatchesCompareMappings: on an unsealed dictionary, the
// ID-row comparator orders every pair of mappings exactly as
// CompareMappings does, including strict-prefix domains and variable names
// that are prefixes of one another.
func TestCompareIDRowsMatchesCompareMappings(t *testing.T) {
	if !sort.StringsAreSorted(orderVars) {
		t.Fatal("orderVars must be sorted by name")
	}
	dict := unsealedDict(t)
	prefixPairs := 0
	f := func(seed int64) bool {
		a, b := randomOrderPair(rand.New(rand.NewSource(seed)))
		if len(a) < len(b) && a.SubsumedBy(b) {
			prefixPairs++
		}
		ra, rb := idRow(dict, a), idRow(dict, b)
		want := CompareMappings(a, b)
		if got := CompareIDRows(dict, ra, rb); got != want {
			t.Logf("CompareIDRows(%v, %v) = %d, CompareMappings = %d", a, b, got, want)
			return false
		}
		return CompareIDRows(dict, rb, ra) == -want && CompareIDRows(dict, ra, ra) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if prefixPairs == 0 {
		t.Fatal("no strict-prefix pair was generated")
	}
}

// TestSortSolutionsOrderAndStability: SortSolutions sorts into the order of
// CompareMappings, keeps equal mappings in their input order, leaves a
// sorted list as it is, and agrees with sorting the ID rows.
func TestSortSolutionsOrderAndStability(t *testing.T) {
	dict := unsealedDict(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sols []Mapping
		for i := 0; i < 1+rng.Intn(12); i++ {
			a, b := randomOrderPair(rng)
			sols = append(sols, a, b)
			if rng.Intn(3) == 0 {
				sols = append(sols, a.Clone()) // an equal, distinct map
			}
		}
		in := slices.Clone(sols)
		ref := slices.Clone(sols)
		sort.SliceStable(ref, func(i, j int) bool { return CompareMappings(ref[i], ref[j]) < 0 })
		got := SortSolutions(sols)
		for i := range got {
			if !sameMap(got[i], ref[i]) { // identity: stability holds too
				return false
			}
		}
		rows := make([][]uint32, len(in))
		for i, h := range in {
			rows[i] = idRow(dict, h)
		}
		slices.SortStableFunc(rows, func(a, b []uint32) int { return CompareIDRows(dict, a, b) })
		for i := range rows {
			if !slices.Equal(rows[i], idRow(dict, got[i])) {
				return false
			}
		}
		again := slices.Clone(got)
		SortSolutions(again)
		for i := range again {
			if !sameMap(again[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sameMap reports whether a and b are the same map value (not just equal).
func sameMap(a, b Mapping) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestMergeSolutions: merging canonically ordered lists equals sorting
// their concatenation and dropping repeats.
func TestMergeSolutions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lists := make([][]Mapping, 1+rng.Intn(3))
		var all []Mapping
		for i := range lists {
			for j := 0; j < rng.Intn(8); j++ {
				a, b := randomOrderPair(rng)
				lists[i] = append(lists[i], a, b)
			}
			set := NewMappingSet()
			for _, h := range lists[i] {
				set.Add(h)
			}
			lists[i] = set.All()
			all = append(all, lists[i]...)
		}
		want := NewMappingSet()
		for _, h := range all {
			want.Add(h)
		}
		got := MergeSolutions(lists...)
		exp := want.All()
		if len(got) != len(exp) {
			return false
		}
		for i := range got {
			if !got[i].Equal(exp[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
