package db

import (
	"sort"
)

// NoID is the sentinel term ID returned for constants absent from a Dict.
// It never identifies a stored term: IDs are dense indexes into the
// dictionary, and the dictionary can never grow to 2^32-1 entries before
// exhausting memory. Rows never contain NoID, so probing a relation with
// it matches nothing — exactly the behaviour of looking up an unknown
// string.
const NoID = ^uint32(0)

// Dict interns constants to dense uint32 term IDs. IDs are assigned in
// first-intern order while loading; Seal (via Database.Seal) re-canonicalizes
// them into sorted-term order so that two databases holding the same facts
// assign the same IDs regardless of insertion order, and so that comparing
// IDs orders the same way as comparing the underlying strings.
//
// Concurrency: lookups (ID, Term, Len, Terms) are safe to call concurrently
// with each other. Intern and canonicalize are not safe concurrently with
// anything — like Relation.Insert, mutation belongs to the loading phase.
type Dict struct {
	terms []string
	ids   map[string]uint32
}

// NewDict creates an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Intern returns the ID for s, assigning the next dense ID on first sight.
func (d *Dict) Intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.terms))
	d.terms = append(d.terms, s)
	d.ids[s] = id
	return id
}

// ID returns the ID for s without interning. The second result reports
// whether s is known; when it is false the first result is NoID.
func (d *Dict) ID(s string) (uint32, bool) {
	id, ok := d.ids[s]
	if !ok {
		return NoID, false
	}
	return id, true
}

// Term returns the string for a valid ID. Passing an ID that was never
// assigned (including NoID) is a programming error and panics via the
// bounds check.
func (d *Dict) Term(id uint32) string { return d.terms[id] }

// Len returns the number of interned terms.
func (d *Dict) Len() int { return len(d.terms) }

// Terms returns the terms indexed by ID. The returned slice must not be
// modified.
func (d *Dict) Terms() []string { return d.terms }

// Sorted reports whether IDs are currently assigned in sorted-term order,
// i.e. whether comparing IDs is equivalent to comparing terms.
func (d *Dict) Sorted() bool { return sort.StringsAreSorted(d.terms) }

// dictFromSorted builds a dictionary whose IDs are already canonical: the
// terms must be strictly sorted (the caller validates), and term i is
// assigned ID i, so the result is indistinguishable from interning the same
// terms in any order and sealing. The slice is copied.
func dictFromSorted(terms []string) *Dict {
	d := &Dict{
		terms: append([]string(nil), terms...),
		ids:   make(map[string]uint32, len(terms)),
	}
	for i, s := range d.terms {
		d.ids[s] = uint32(i)
	}
	return d
}

// canonicalize reassigns IDs in sorted-term order. It returns the old→new
// remap table, or nil if the assignment was already canonical (which makes
// the operation idempotent). Callers owning stores must renumber them with
// the same table.
func (d *Dict) canonicalize() []uint32 {
	if sort.StringsAreSorted(d.terms) {
		return nil
	}
	sorted := make([]string, len(d.terms))
	copy(sorted, d.terms)
	sort.Strings(sorted)
	remap := make([]uint32, len(d.terms))
	ids := make(map[string]uint32, len(sorted))
	for i, s := range sorted {
		ids[s] = uint32(i)
	}
	for old, s := range d.terms {
		remap[old] = ids[s]
	}
	d.terms = sorted
	d.ids = ids
	return remap
}
