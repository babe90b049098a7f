package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/obs"
	"wdpt/internal/sparql"
)

// ColumnInfo summarizes one column of a relation in the /v1/datasets
// listing: its position and the number of distinct terms it holds — the
// per-column selectivity the column store's permuted indexes exploit
// (docs/STORAGE.md).
type ColumnInfo struct {
	// Pos is the zero-based column position.
	Pos int `json:"pos"`
	// Distinct is the number of distinct terms stored at this position.
	Distinct int `json:"distinct"`
}

// RelationInfo describes one relation of a dataset in the /v1/datasets
// listing.
type RelationInfo struct {
	// Name is the relation name.
	Name string `json:"name"`
	// Arity is the relation's arity.
	Arity int `json:"arity"`
	// Tuples is the number of ground tuples.
	Tuples int `json:"tuples"`
	// Columns summarizes the columns in position order.
	Columns []ColumnInfo `json:"columns"`
}

// Dataset is one immutable snapshot of a named database: the parsed
// Database, the registry version it was loaded at, and its shape summary.
// Snapshots are never mutated after load — a hot reload builds fresh ones
// and swaps the whole set atomically, so requests that already hold a
// snapshot keep evaluating against consistent data.
type Dataset struct {
	// Name is the registry name queries address the dataset by.
	Name string `json:"name"`
	// Version is the registry generation this snapshot was loaded at; it is
	// part of every result-cache key, so a reload implicitly invalidates all
	// cached responses for the dataset.
	Version int64 `json:"version"`
	// Path is the file the snapshot was parsed from.
	Path string `json:"path"`
	// Atoms is the total number of ground atoms.
	Atoms int `json:"atoms"`
	// DictTerms is the size of the dataset's term dictionary — the number
	// of distinct constants interned across all relations.
	DictTerms int `json:"dict_terms"`
	// LoadNS is the wall-clock time spent parsing and loading this
	// snapshot (reading the file, inserting, sealing, and summarizing).
	LoadNS int64 `json:"load_ns"`
	// Source records where the data came from: "text" for a parsed dataset
	// file, "snapshot" for a binary snapshot loaded from the registry's
	// snapshot directory.
	Source string `json:"source"`
	// Rows maps every relation name to its ground-tuple count — the flat
	// per-relation row counts the stress harness and ring-rebalance checks
	// read to size datasets without loading them (the same numbers as
	// Relations[i].Tuples, addressable by name). JSON encoding sorts map
	// keys, so the listing stays byte-deterministic.
	Rows map[string]int `json:"rows"`
	// Relations summarizes the relations, sorted by name.
	Relations []RelationInfo `json:"relations"`
	// DB is the parsed database. Read-only.
	DB *db.Database `json:"-"`
}

// Registry is the server's set of named datasets: parsed once at startup,
// replaced wholesale by Reload (SIGHUP or the admin endpoint). Lookups are
// lock-free reads of an atomically swapped snapshot map; a failed reload
// keeps the previous snapshot serving.
type Registry struct {
	paths   map[string]string // name -> file path; immutable after New
	snapDir string            // snapshot directory, "" when persistence is off
	st      *obs.Stats
	gen     atomic.Int64
	cur     atomic.Pointer[map[string]*Dataset]
	mu      sync.Mutex // serializes Reload and SaveSnapshots
}

// RegistryConfig configures a Registry beyond the bare name→path specs.
type RegistryConfig struct {
	// Specs maps dataset names to their text dataset files. Required.
	Specs map[string]string
	// SnapshotDir, when non-empty, enables binary snapshot persistence:
	// loads prefer <dir>/<name>.snap over reparsing the text file, corrupt
	// snapshots are quarantined (renamed *.quarantined) with the dataset
	// falling back to text, and SaveSnapshots persists the current
	// datasets there. The directory is created if missing.
	SnapshotDir string
	// Stats receives the server.snapshot_* counters. nil allocates a
	// private sink.
	Stats *obs.Stats
}

// NewRegistry parses every named dataset file and returns a registry at
// version 1. An unreadable or unparsable file fails construction — a server
// must not start with a partial dataset set.
func NewRegistry(specs map[string]string) (*Registry, error) {
	return NewRegistryWithConfig(RegistryConfig{Specs: specs})
}

// NewRegistryWithConfig is NewRegistry with snapshot persistence options.
func NewRegistryWithConfig(cfg RegistryConfig) (*Registry, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("server: registry needs at least one dataset")
	}
	st := cfg.Stats
	if st == nil {
		st = obs.NewStats()
	}
	r := &Registry{
		paths:   make(map[string]string, len(cfg.Specs)),
		snapDir: cfg.SnapshotDir,
		st:      st,
	}
	for name, path := range cfg.Specs {
		if name == "" {
			return nil, fmt.Errorf("server: dataset name must not be empty (path %q)", path)
		}
		if name != filepath.Base(name) || name == "." || name == ".." {
			return nil, fmt.Errorf("server: dataset name %q is not a valid snapshot file stem", name)
		}
		r.paths[name] = path
	}
	if r.snapDir != "" {
		if err := os.MkdirAll(r.snapDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: snapshot directory: %w", err)
		}
	}
	snap, err := r.loadAll(1)
	if err != nil {
		return nil, err
	}
	r.gen.Store(1)
	r.cur.Store(&snap)
	return r, nil
}

// SnapshotDir returns the registry's snapshot directory, "" when snapshot
// persistence is disabled.
func (r *Registry) SnapshotDir() string { return r.snapDir }

// snapshotPath is the snapshot file for a dataset name.
func (r *Registry) snapshotPath(name string) string {
	return filepath.Join(r.snapDir, name+".snap")
}

// loadAll loads every registered dataset into a fresh snapshot-map stamped
// with the given version, in name order so errors are reported
// deterministically. With a snapshot directory configured, each dataset
// prefers its binary snapshot over reparsing text; a corrupt snapshot is
// quarantined and the text file is parsed instead, so bad bytes on disk
// degrade to a slower load, never to a dead or wrong dataset.
func (r *Registry) loadAll(version int64) (map[string]*Dataset, error) {
	names := make([]string, 0, len(r.paths))
	for name := range r.paths {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := make(map[string]*Dataset, len(names))
	for _, name := range names {
		ds, err := r.loadOne(name, version)
		if err != nil {
			return nil, err
		}
		snap[name] = ds
	}
	return snap, nil
}

func (r *Registry) loadOne(name string, version int64) (*Dataset, error) {
	path := r.paths[name]
	start := time.Now()
	var d *db.Database
	source := "text"
	if r.snapDir != "" {
		sp := r.snapshotPath(name)
		sd, err := snapshot.Read(sp)
		switch {
		case err == nil:
			d, source = sd, "snapshot"
			r.st.Inc(obs.CtrServerSnapshotLoads)
		case errors.Is(err, fs.ErrNotExist):
			// No snapshot yet: parse the text file below.
		default:
			// Corrupt or unreadable snapshot: move it aside (best-effort —
			// the text fallback proceeds regardless) and count the event so
			// operators see silent bit rot.
			r.st.Inc(obs.CtrServerSnapshotQuarantined)
			_ = os.Rename(sp, sp+".quarantined")
		}
	}
	if d == nil {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("server: dataset %q: %w", name, err)
		}
		d, err = sparql.ParseDatabase(string(data))
		if err != nil {
			return nil, fmt.Errorf("server: dataset %q (%s): %w", name, path, err)
		}
	}
	rels := relationInfos(d)
	rows := make(map[string]int, len(rels))
	for _, rel := range rels {
		rows[rel.Name] = rel.Tuples
	}
	return &Dataset{
		Name:      name,
		Version:   version,
		Path:      path,
		Atoms:     d.Size(),
		DictTerms: d.Dict().Len(),
		Rows:      rows,
		Relations: rels,
		DB:        d,
		LoadNS:    time.Since(start).Nanoseconds(),
		Source:    source,
	}, nil
}

// SaveSnapshots durably writes every current dataset to the snapshot
// directory via the crash-safe writer and returns the registry version the
// snapshots capture plus the written file names (sorted). It fails when the
// registry has no snapshot directory. Writes serialize with Reload, so a
// save captures one consistent registry generation.
func (r *Registry) SaveSnapshots() (int64, []string, error) {
	if r.snapDir == "" {
		return 0, nil, fmt.Errorf("server: registry has no snapshot directory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := *r.cur.Load()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]string, 0, len(names))
	for _, name := range names {
		sp := r.snapshotPath(name)
		if err := snapshot.Write(sp, snap[name].DB); err != nil {
			return r.gen.Load(), files, fmt.Errorf("server: dataset %q: %w", name, err)
		}
		r.st.Inc(obs.CtrServerSnapshotWrites)
		files = append(files, filepath.Base(sp))
	}
	return r.gen.Load(), files, nil
}

func relationInfos(d *db.Database) []RelationInfo {
	rels := d.Relations()
	out := make([]RelationInfo, 0, len(rels))
	for _, rel := range rels {
		out = append(out, RelationInfo{
			Name:    rel.Name(),
			Arity:   rel.Arity(),
			Tuples:  rel.Len(),
			Columns: columnInfos(rel),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// columnInfos computes each column's distinct-term count by walking the
// stored rows once per position. IDs are dense (0..Dict.Len()-1), so a
// flat seen-bitmap replaces a hash set; datasets load once per reload, so
// the walk is off every query path.
func columnInfos(rel *db.Relation) []ColumnInfo {
	out := make([]ColumnInfo, rel.Arity())
	n := rel.Len()
	seen := make([]bool, rel.Dict().Len())
	for pos := range out {
		for i := range seen {
			seen[i] = false
		}
		distinct := 0
		for i := 0; i < n; i++ {
			if id := rel.At(i, pos); !seen[id] {
				seen[id] = true
				distinct++
			}
		}
		out[pos] = ColumnInfo{Pos: pos, Distinct: distinct}
	}
	return out
}

// Reload re-parses every dataset file into a new snapshot set and swaps it
// in atomically under a bumped version. On any error the previous snapshot
// keeps serving and the version does not change.
func (r *Registry) Reload() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	version := r.gen.Load() + 1
	snap, err := r.loadAll(version)
	if err != nil {
		return r.gen.Load(), err
	}
	r.gen.Store(version)
	r.cur.Store(&snap)
	return version, nil
}

// Version returns the current registry generation.
func (r *Registry) Version() int64 { return r.gen.Load() }

// Get returns the named dataset's current snapshot.
func (r *Registry) Get(name string) (*Dataset, bool) {
	snap := r.cur.Load()
	ds, ok := (*snap)[name]
	return ds, ok
}

// List returns the current snapshots sorted by name.
func (r *Registry) List() []*Dataset {
	snap := r.cur.Load()
	out := make([]*Dataset, 0, len(*snap))
	for _, ds := range *snap {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
