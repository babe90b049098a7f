package cq

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"wdpt/internal/db"
)

// Mapping is a partial mapping h : X -> U from variable names to constants.
// A nil Mapping is the everywhere-undefined mapping.
type Mapping map[string]string

// Clone returns a copy of the mapping.
func (h Mapping) Clone() Mapping {
	out := make(Mapping, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// Domain returns the sorted set of variables on which h is defined.
func (h Mapping) Domain() []string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Restrict returns the restriction of h to the given variables.
func (h Mapping) Restrict(vars []string) Mapping {
	out := make(Mapping)
	for _, v := range vars {
		if c, ok := h[v]; ok {
			out[v] = c
		}
	}
	return out
}

// SubsumedBy reports h ⊑ h': dom(h) ⊆ dom(h') and the mappings agree on
// dom(h) (Section 2, "subsumption" of partial mappings).
func (h Mapping) SubsumedBy(hp Mapping) bool {
	for k, v := range h {
		vp, ok := hp[k]
		if !ok || v != vp {
			return false
		}
	}
	return true
}

// ProperlySubsumedBy reports h ⊏ h': h ⊑ h' and not h' ⊑ h.
func (h Mapping) ProperlySubsumedBy(hp Mapping) bool {
	return h.SubsumedBy(hp) && !hp.SubsumedBy(h)
}

// Equal reports whether h and h' are the same partial mapping.
func (h Mapping) Equal(hp Mapping) bool {
	return len(h) == len(hp) && h.SubsumedBy(hp)
}

// CompatibleWith reports whether h and h' agree wherever both are defined,
// i.e. whether h ∪ h' is a partial mapping.
func (h Mapping) CompatibleWith(hp Mapping) bool {
	small, big := h, hp
	if len(big) < len(small) {
		small, big = big, small
	}
	for k, v := range small {
		if vb, ok := big[k]; ok && vb != v {
			return false
		}
	}
	return true
}

// Union returns h ∪ h'. It panics if the mappings disagree on a shared
// variable, since callers are expected to check compatibility first.
func (h Mapping) Union(hp Mapping) Mapping {
	out := h.Clone()
	for k, v := range hp {
		if prev, ok := out[k]; ok && prev != v {
			//lint:ignore R2 documented contract: callers must check CompatibleWith first
			panic("cq: union of incompatible mappings at variable " + k)
		}
		out[k] = v
	}
	return out
}

// Apply returns h(t): the constant assigned to a variable (ok=false when
// unbound), or the constant itself for constant terms.
func (h Mapping) Apply(t Term) (string, bool) {
	if !t.IsVar() {
		return t.Value(), true
	}
	v, ok := h[t.Value()]
	return v, ok
}

// ApplyAtom returns the atom with all bound variables replaced by their
// images under h. Unbound variables are left intact.
func (h Mapping) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			if v, ok := h[t.Value()]; ok {
				args[i] = C(v)
				continue
			}
		}
		args[i] = t
	}
	return Atom{Rel: a.Rel, Args: args}
}

// Key renders the mapping as a canonical string usable as a map key.
func (h Mapping) Key() string {
	dom := h.Domain()
	var b strings.Builder
	for _, k := range dom {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(h[k])
		b.WriteByte('\x00')
	}
	return b.String()
}

// String renders the mapping as "{x -> a, y -> b}" with sorted variables.
func (h Mapping) String() string {
	dom := h.Domain()
	parts := make([]string, len(dom))
	for i, k := range dom {
		parts[i] = k + " -> " + h[k]
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// CompareMappings compares two partial mappings in the canonical solution
// order: entry by entry over their sorted domains, first by variable name,
// then by term value; a mapping whose entries are a strict prefix of the
// other's sorts first. It returns -1, 0, or +1.
func CompareMappings(a, b Mapping) int {
	return compareEntries(a.entries(nil), b.entries(nil))
}

// entries appends h's comparison data to dst: its domain in sorted order,
// then the values in the same order.
func (h Mapping) entries(dst []string) []string {
	keys := dst[len(dst):] // gathered in dst's spare capacity, if any
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, keys...)
	for _, k := range keys {
		dst = append(dst, h[k])
	}
	return dst
}

// compareEntries is CompareMappings over comparison data built by entries.
func compareEntries(a, b []string) int {
	na, nb := len(a)/2, len(b)/2
	for i := 0; i < na && i < nb; i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
		if c := strings.Compare(a[na+i], b[nb+i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(na, nb)
}

// CompareIDRows is CompareMappings over dictionary-encoded rows. Both rows
// are indexed by slot over one variable order sorted by name, and db.NoID
// marks an unbound slot, so a row's bound slots list its entries in domain
// order. Slot order stands in for name order, and values compare as the
// terms of dict: ID order equals term order only on a sealed dictionary,
// so the terms are compared, not the IDs.
func CompareIDRows(dict *db.Dict, a, b []uint32) int {
	i, j := nextBound(a, 0), nextBound(b, 0)
	for i < len(a) && j < len(b) {
		if i != j {
			// The mapping whose next variable sorts first has the smaller
			// entry at this position.
			return cmp.Compare(i, j)
		}
		if a[i] != b[j] {
			return strings.Compare(dict.Term(a[i]), dict.Term(b[j]))
		}
		i, j = nextBound(a, i+1), nextBound(b, j+1)
	}
	switch {
	case i < len(a):
		return 1
	case j < len(b):
		return -1
	}
	return 0
}

// nextBound returns the first slot at or after i that is bound in row, or
// len(row).
func nextBound(row []uint32, i int) int {
	for i < len(row) && row[i] == db.NoID {
		i++
	}
	return i
}

// SortSolutions sorts a solution list in place into the canonical order of
// CompareMappings and returns it. Applying it at every output boundary makes
// solution enumeration byte-stable across runs regardless of map iteration
// order anywhere upstream. Each mapping's comparison data is computed once,
// and a list already in canonical order is left as it is.
func SortSolutions(sols []Mapping) []Mapping {
	keyed := decorate(sols)
	if slices.IsSortedFunc(keyed, compareKeyed) {
		return sols
	}
	slices.SortStableFunc(keyed, compareKeyed)
	for i, k := range keyed {
		sols[i] = k.h
	}
	return sols
}

// keyedMapping is a mapping decorated with its comparison entries.
type keyedMapping struct {
	h Mapping
	e []string
}

func compareKeyed(a, b keyedMapping) int { return compareEntries(a.e, b.e) }

// decorate pairs every mapping with its entries, all held in one backing
// array.
func decorate(sols []Mapping) []keyedMapping {
	n := 0
	for _, h := range sols {
		n += 2 * len(h)
	}
	flat := make([]string, 0, n)
	out := make([]keyedMapping, len(sols))
	for i, h := range sols {
		start := len(flat)
		flat = h.entries(flat)
		out[i] = keyedMapping{h: h, e: flat[start:len(flat):len(flat)]}
	}
	return out
}

// MergeSolutions merges solution lists that are each in canonical order
// into one canonically ordered list without duplicates; of equal mappings
// the one from the earliest list is kept.
func MergeSolutions(lists ...[]Mapping) []Mapping {
	keyed := make([][]keyedMapping, 0, len(lists))
	total := 0
	for _, l := range lists {
		keyed = append(keyed, decorate(l))
		total += len(l)
	}
	out := make([]Mapping, 0, total)
	var last keyedMapping
	for {
		best := -1
		for i, l := range keyed {
			if len(l) > 0 && (best < 0 || compareKeyed(l[0], keyed[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		k := keyed[best][0]
		keyed[best] = keyed[best][1:]
		if len(out) > 0 && compareKeyed(last, k) == 0 {
			continue
		}
		out = append(out, k.h)
		last = k
	}
}

// MappingSet is a set of partial mappings with canonical-key deduplication.
type MappingSet struct {
	byKey map[string]Mapping
}

// NewMappingSet returns an empty set.
func NewMappingSet() *MappingSet {
	return &MappingSet{byKey: make(map[string]Mapping)}
}

// Add inserts h, reporting whether it was new.
func (s *MappingSet) Add(h Mapping) bool {
	k := h.Key()
	if _, ok := s.byKey[k]; ok {
		return false
	}
	s.byKey[k] = h.Clone()
	return true
}

// Contains reports whether the set holds exactly h.
func (s *MappingSet) Contains(h Mapping) bool {
	_, ok := s.byKey[h.Key()]
	return ok
}

// Len returns the number of mappings in the set.
func (s *MappingSet) Len() int { return len(s.byKey) }

// All returns the mappings in the canonical solution order of
// CompareMappings, for deterministic output.
func (s *MappingSet) All() []Mapping {
	out := make([]Mapping, 0, len(s.byKey))
	for _, h := range s.byKey {
		out = append(out, h) //lint:ignore R1 canonical order is restored by SortSolutions on return
	}
	return SortSolutions(out)
}

// Maximal returns the mappings of the set that are not properly subsumed by
// another member: the restriction used by the maximal-mappings semantics
// p_m(D) of Section 3.4.
func (s *MappingSet) Maximal() []Mapping {
	return MaximalSolutions(s.All())
}

// MaximalSolutions returns the mappings of sols that are not properly
// subsumed by another member, in their order in sols.
func MaximalSolutions(sols []Mapping) []Mapping {
	var out []Mapping
	for i, h := range sols {
		dominated := false
		for j, hp := range sols {
			if i != j && h.ProperlySubsumedBy(hp) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, h)
		}
	}
	return out
}
