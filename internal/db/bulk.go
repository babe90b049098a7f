package db

import (
	"fmt"
)

// BulkRelation describes one relation's rows in dictionary-encoded
// column-major form for NewFromColumns: Cols[pos][i] is row i's term ID at
// position pos, and every column holds exactly Rows values. This is the
// load half of the snapshot path — Relation.Columns is the matching export.
type BulkRelation struct {
	Name string
	Rows int
	Cols [][]uint32
}

// NewFromColumns builds a database directly from canonical term IDs,
// bypassing string interning: terms must be strictly sorted (so the
// resulting dictionary is already sealed — term i has ID i), and every
// column value must be a valid index into terms. The input is validated,
// not trusted: unsorted or duplicate terms, out-of-range IDs, ragged or
// empty columns, duplicate relation names, and duplicate rows are all
// errors — bulk input comes from a snapshot, where any of these means
// corruption rather than a benign re-insert. On error the returned
// database is nil; no partially loaded state escapes.
func NewFromColumns(terms []string, rels []BulkRelation) (*Database, error) {
	for i := 1; i < len(terms); i++ {
		if terms[i-1] >= terms[i] {
			return nil, fmt.Errorf("db: bulk terms not strictly sorted at index %d (%q then %q)", i, terms[i-1], terms[i])
		}
	}
	d := New()
	d.dict = dictFromSorted(terms)
	for _, br := range rels {
		if br.Name == "" {
			return nil, fmt.Errorf("db: bulk relation with empty name")
		}
		if d.rels[br.Name] != nil {
			return nil, fmt.Errorf("db: duplicate bulk relation %q", br.Name)
		}
		arity := len(br.Cols)
		if arity == 0 {
			return nil, fmt.Errorf("db: bulk relation %q has no columns", br.Name)
		}
		if br.Rows < 0 {
			return nil, fmt.Errorf("db: bulk relation %q has negative row count %d", br.Name, br.Rows)
		}
		for pos, col := range br.Cols {
			if len(col) != br.Rows {
				return nil, fmt.Errorf("db: bulk relation %q column %d holds %d values, want %d", br.Name, pos, len(col), br.Rows)
			}
			for i, id := range col {
				if int64(id) >= int64(len(terms)) {
					return nil, fmt.Errorf("db: bulk relation %q row %d column %d: term ID %d out of range (dictionary holds %d terms)", br.Name, i, pos, id, len(terms))
				}
			}
		}
		r := newRelation(br.Name, arity, d.dict)
		if err := r.store.bulkLoad(br.Cols, br.Rows); err != nil {
			return nil, fmt.Errorf("db: bulk relation %q: %w", br.Name, err)
		}
		d.rels[br.Name] = r
	}
	return d, nil
}
