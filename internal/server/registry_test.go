package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile writes a dataset file into dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistryLoadAndList(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]string{
		"music": writeFile(t, dir, "music.txt", "recorded_by(Swim, Caribou).\nrating(Swim, 2).\n"),
		"chain": writeFile(t, dir, "chain.txt", "E(0, 1).\nE(1, 2).\n"),
	}
	r, err := NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("Version() = %d, want 1", r.Version())
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "chain" || list[1].Name != "music" {
		t.Fatalf("List() = %v, want [chain music] sorted", list)
	}
	ds, ok := r.Get("music")
	if !ok || ds.Atoms != 2 || ds.Version != 1 || ds.DB == nil {
		t.Fatalf("Get(music) = %+v ok=%v", ds, ok)
	}
	if len(ds.Relations) != 2 || ds.Relations[0].Name != "rating" || ds.Relations[1].Name != "recorded_by" {
		t.Fatalf("relations not sorted by name: %+v", ds.Relations)
	}
	if ds.Relations[0].Arity != 2 || ds.Relations[0].Tuples != 1 {
		t.Fatalf("rating info = %+v, want arity 2, 1 tuple", ds.Relations[0])
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
}

// TestRegistryStorageStats pins the dictionary-size, load-timing,
// and per-column distinct-term summaries the /v1/datasets listing and the
// /metrics.json storage gauges are built from.
func TestRegistryStorageStats(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(map[string]string{
		"music": writeFile(t, dir, "music.txt",
			"recorded_by(Swim, Caribou).\nrecorded_by(Suns, Caribou).\nrating(Swim, 2).\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := r.Get("music")
	// Distinct constants: Swim, Suns, Caribou, 2.
	if ds.DictTerms != 4 {
		t.Fatalf("DictTerms = %d, want 4", ds.DictTerms)
	}
	if ds.LoadNS <= 0 {
		t.Fatalf("LoadNS = %d, want > 0", ds.LoadNS)
	}
	// recorded_by holds (Swim, Caribou) and (Suns, Caribou): two distinct
	// subjects, one distinct object.
	rb := ds.Relations[1]
	if rb.Name != "recorded_by" {
		t.Fatalf("Relations[1] = %+v, want recorded_by", rb)
	}
	want := []ColumnInfo{{Pos: 0, Distinct: 2}, {Pos: 1, Distinct: 1}}
	if len(rb.Columns) != 2 || rb.Columns[0] != want[0] || rb.Columns[1] != want[1] {
		t.Fatalf("recorded_by columns = %+v, want %+v", rb.Columns, want)
	}
}

func TestRegistryReloadSwapsAtomically(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "d.txt", "E(0, 1).\n")
	r, err := NewRegistry(map[string]string{"d": path})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := r.Get("d")

	writeFile(t, dir, "d.txt", "E(0, 1).\nE(1, 2).\nE(2, 3).\n")
	version, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || r.Version() != 2 {
		t.Fatalf("reload version = %d (registry %d), want 2", version, r.Version())
	}
	after, _ := r.Get("d")
	if after.Atoms != 3 || after.Version != 2 {
		t.Fatalf("reloaded snapshot = %+v, want 3 atoms at version 2", after)
	}
	// The old snapshot a long-running request may still hold is untouched.
	if before.Atoms != 1 || before.Version != 1 || before.DB.Size() != 1 {
		t.Fatalf("pre-reload snapshot mutated: %+v", before)
	}
}

func TestRegistryReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "d.txt", "E(0, 1).\n")
	r, err := NewRegistry(map[string]string{"d": path})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "d.txt", "this is not a database(\n")
	version, err := r.Reload()
	if err == nil {
		t.Fatal("Reload() of a broken file succeeded")
	}
	if !strings.Contains(err.Error(), `dataset "d"`) {
		t.Errorf("reload error %q does not name the dataset", err)
	}
	if version != 1 || r.Version() != 1 {
		t.Fatalf("failed reload changed the version: %d", r.Version())
	}
	ds, ok := r.Get("d")
	if !ok || ds.Atoms != 1 || ds.Version != 1 {
		t.Fatalf("previous snapshot not serving after failed reload: %+v", ds)
	}
}

func TestNewRegistryErrors(t *testing.T) {
	if _, err := NewRegistry(nil); err == nil {
		t.Error("NewRegistry(nil) succeeded")
	}
	if _, err := NewRegistry(map[string]string{"": "x.txt"}); err == nil {
		t.Error("NewRegistry with empty name succeeded")
	}
	if _, err := NewRegistry(map[string]string{"d": filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Error("NewRegistry with missing file succeeded")
	}
}
