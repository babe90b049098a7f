package snapshot_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wdpt/internal/db/snapshot"
)

// seedInputs are the fuzz corpus starting points: a valid snapshot, the
// interesting truncations and mutations of it, crafted semantic
// violations, and plain garbage. The same set is committed under
// testdata/fuzz/FuzzSnapshotLoader (regenerate with
// WDPT_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/db/snapshot).
func seedInputs(t testing.TB) map[string][]byte {
	valid := rawSnapshot(1, []string{"alpha", "beta", "gamma"}, []rawRel{
		{name: "edge", arity: 2, rows: 2, ids: []uint32{0, 1, 1, 2}},
		{name: "label", arity: 1, rows: 1, ids: []uint32{2}},
	})
	if _, err := snapshot.Decode(valid); err != nil {
		t.Fatalf("seed snapshot does not decode: %v", err)
	}
	flip := func(off int) []byte {
		out := append([]byte(nil), valid...)
		out[off] ^= 0x20
		return out
	}
	return map[string][]byte{
		"seed-valid":           valid,
		"seed-empty":           {},
		"seed-garbage":         []byte("this is not a snapshot at all, just text"),
		"seed-magic-only":      []byte("WDPTSNAP"),
		"seed-header-only":     valid[:16],
		"seed-torn-mid":        valid[:len(valid)/2],
		"seed-no-footer":       valid[:len(valid)-12],
		"seed-flip-version":    flip(9),
		"seed-flip-dict":       flip(20),
		"seed-flip-payload":    flip(len(valid) / 2),
		"seed-flip-footer-crc": flip(len(valid) - 1),
		"seed-unsorted-terms":  rawSnapshot(1, []string{"b", "a"}, nil),
		"seed-bad-id":          rawSnapshot(1, []string{"a"}, []rawRel{{name: "r", arity: 1, rows: 1, ids: []uint32{9}}}),
		"seed-dup-rows":        rawSnapshot(1, []string{"a"}, []rawRel{{name: "r", arity: 1, rows: 2, ids: []uint32{0, 0}}}),
		"seed-future-version":  rawSnapshot(99, []string{"a"}, nil),
		"seed-empty-db":        rawSnapshot(1, nil, nil),
	}
}

// FuzzSnapshotLoader feeds the loader arbitrary bytes: it must only ever
// fail with the typed taxonomy — never panic, never return a database
// together with an error — and anything it does accept must re-encode and
// re-decode to the same database (no silently misloaded data).
func FuzzSnapshotLoader(f *testing.F) {
	for _, seed := range seedInputs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := snapshot.Decode(data)
		if err != nil {
			if d != nil {
				t.Fatalf("Decode returned a database alongside error %v", err)
			}
			if !typedSnapshotError(err) {
				t.Fatalf("Decode failed with untyped error: %v", err)
			}
			return
		}
		out, err := snapshot.Encode(d)
		if err != nil {
			t.Fatalf("accepted input re-encodes with error: %v", err)
		}
		d2, err := snapshot.Decode(out)
		if err != nil {
			t.Fatalf("re-encoded accepted input fails to decode: %v", err)
		}
		if d.String() != d2.String() {
			t.Fatalf("accepted input does not round-trip:\nfirst:\n%s\nsecond:\n%s", d.String(), d2.String())
		}
	})
}

// TestWriteSeedCorpus materializes the seed inputs into the committed
// corpus directory when WDPT_WRITE_CORPUS=1 is set; otherwise it verifies
// the committed corpus is present and in sync with seedInputs.
func TestWriteSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotLoader")
	if os.Getenv("WDPT_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("MkdirAll: %v", err)
		}
		for name, data := range seedInputs(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatalf("WriteFile %s: %v", name, err)
			}
		}
		return
	}
	for name, data := range seedInputs(t) {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("committed corpus entry missing (regenerate with WDPT_WRITE_CORPUS=1): %v", err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if string(raw) != want {
			t.Errorf("corpus entry %s out of sync with seedInputs; regenerate with WDPT_WRITE_CORPUS=1", name)
		}
	}
}
