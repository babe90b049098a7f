package wdpt_test

import (
	"context"
	"fmt"
	"testing"

	"wdpt"
	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/sparql"
)

// Snapshot-parity suite: the acceptance contract of the persistence format
// (docs/STORAGE.md). A database that travels text -> Seal -> snapshot ->
// load must answer every query byte-identically to the directly parsed
// database, with identical evaluation counters, across the parallelism
// sweep — durability may only change where the rows come from, never which
// rows or how much evaluation work is recorded. The loaded answers must
// also equal the definition-level oracle's p(D).

// solveCounted evaluates p over d and returns the rendered answers, the
// non-par.* counters, and the error. The engine in opts must be freshly
// constructed per call: its plan cache is per-instance state, and a shared
// engine would hand the second call a warm cache the first one had to fill.
func solveCounted(p *wdpt.PatternTree, d *db.Database, opts wdpt.SolveOptions) ([]wdpt.Mapping, map[string]int64, error) {
	st := wdpt.NewStats()
	opts.Stats = st
	res, err := p.Solve(context.Background(), d, opts)
	return res.Answers, dropParCounters(st.Snapshot()), err
}

func TestSnapshotParity(t *testing.T) {
	for _, c := range equivCases() {
		// Round-trip through the text format first, so the snapshot source
		// is the same sealed database every operator data path produces.
		parsed, err := sparql.ParseDatabase(sparql.FormatDatabase(c.d))
		if err != nil {
			t.Fatalf("%s: reparsing fixture: %v", c.name, err)
		}
		blob, err := snapshot.Encode(parsed)
		if err != nil {
			t.Fatalf("%s: encoding snapshot: %v", c.name, err)
		}
		loaded, err := snapshot.Decode(blob)
		if err != nil {
			t.Fatalf("%s: decoding snapshot: %v", c.name, err)
		}
		all, _ := oracle(c.p, loaded)
		for _, par := range []int{1, 8} {
			// "col" names the column store the snapshot is decoded into.
			t.Run(fmt.Sprintf("%s/col/p%d", c.name, par), func(t *testing.T) {
				mkOpts := func() wdpt.SolveOptions {
					return wdpt.SolveOptions{
						Mode:        wdpt.ModeEnumerate,
						Engine:      wdpt.AutoEngine(),
						Parallelism: par,
					}
				}
				wantAns, wantCtrs, wantErr := solveCounted(c.p, parsed, mkOpts())
				gotAns, gotCtrs, gotErr := solveCounted(c.p, loaded, mkOpts())
				if wantErr != nil || gotErr != nil {
					t.Fatalf("solve errors: parsed=%v snapshot=%v", wantErr, gotErr)
				}
				if w, g := renderSolutions(wantAns), renderSolutions(gotAns); w != g {
					t.Errorf("answers differ between parsed and snapshot-loaded data:\n--- parsed\n%s--- snapshot\n%s", w, g)
				}
				snapshotDiff(t, gotCtrs, wantCtrs)
				checkOracle(t, "snapshot-loaded answers", gotAns, all)
			})
		}
	}
}
