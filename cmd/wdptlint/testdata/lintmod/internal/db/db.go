// Package db is the fixture stand-in for the storage layer: R13 matches
// []db.Tuple collections, and R10 matches (*Relation).MatchingIDs as a
// cancellable sink. The package itself is R10-exempt substrate.
package db

// Tuple is one stored row.
type Tuple []string

// Relation is a fixture relation.
type Relation struct{ rows []Tuple }

// MatchingIDs is the index-scan sink for R10.
func (r *Relation) MatchingIDs(t Tuple) []Tuple {
	if len(t) == 0 {
		return nil
	}
	return r.rows
}
