package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"wdpt"
	"wdpt/internal/gen"
)

// TestWorkloadDeterminism: the same seed gives the same dataset bytes and
// the same request stream; another seed gives other data.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, fullSizes)
		c, _ := buildWorkload(name, 8, fullSizes)
		for ds, data := range a.files {
			if !bytes.Equal(data, b.files[ds]) {
				t.Errorf("%s: dataset %s differs between two builds of seed 7", name, ds)
			}
			if bytes.Equal(data, c.files[ds]) {
				t.Errorf("%s: dataset %s is the same for seeds 7 and 8", name, ds)
			}
		}
		if len(a.stream) != len(b.stream) || len(a.reqs) != len(b.reqs) {
			t.Fatalf("%s: stream or request count differs between two builds", name)
		}
		for i := range a.stream {
			ra, rb := a.reqs[a.stream[i]], b.reqs[b.stream[i]]
			if ra.kind != rb.kind || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: position %d differs between two builds of seed 7", name, i)
			}
		}
	}
}

// sortedLines renders a database's atoms one per line, sorted.
func sortedLines(d *wdpt.Database) []string {
	lines := strings.Split(strings.TrimSpace(wdpt.FormatDatabase(d)), "\n")
	sort.Strings(lines)
	return lines
}

// TestGeneratorsMatchInternalGen: the generated files hold exactly the
// atoms of internal/gen's LayeredDatabase and MusicDatabaseLarge for the
// same seeds, the datasets the benchmark's sizes were chosen on.
func TestGeneratorsMatchInternalGen(t *testing.T) {
	const seed = 3
	for _, tc := range []struct {
		name string
		text []byte
		ref  *wdpt.Database
	}{
		{"graph", genGraph(4, 50, 3, seed).text(), gen.LayeredDatabase(4, 50, 3, seed)},
		{"music", musicText(genMusic(40, 5, seed)), gen.MusicDatabaseLarge(40, 5, seed)},
	} {
		d, err := wdpt.ParseDatabase(string(tc.text))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := sortedLines(d), sortedLines(tc.ref)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: %d generated atoms differ from internal/gen's %d", tc.name, len(got), len(want))
		}
	}
}

// TestStreamShapes pins the properties the workloads were chosen for.
func TestStreamShapes(t *testing.T) {
	w, _ := buildWorkload("enumerate", 1, fullSizes)
	unions := 0
	last := map[int]int{}
	for i, idx := range w.stream {
		if w.reqs[idx].kind == kindUnion {
			unions++
		}
		if j, ok := last[int(idx)]; ok && i-j <= 256 {
			t.Fatalf("enumerate: request %d recurs within %d positions", idx, i-j)
		}
		last[int(idx)] = i
	}
	if 4*unions != len(w.stream) {
		t.Errorf("enumerate: %d unions in %d positions, want one in four", unions, len(w.stream))
	}

	w, _ = buildWorkload("lookup", 1, fullSizes)
	keys := map[string]int{}
	for i, idx := range w.stream {
		k := string(w.reqs[idx].body)
		if j, ok := keys[k]; ok && i-j <= 256 {
			t.Fatalf("lookup: key recurs within %d positions", i-j)
		}
		keys[k] = i
	}

	w, _ = buildWorkload("repeat", 1, fullSizes)
	distinct := map[int32]bool{}
	reloads := 0
	for _, idx := range w.stream {
		if w.reqs[idx].kind == kindReload {
			reloads++
		} else {
			distinct[idx] = true
		}
	}
	if len(distinct) > repeatKeys || reloads != len(w.stream)/repeatReload {
		t.Errorf("repeat: %d distinct lookups, %d reloads", len(distinct), reloads)
	}
}
