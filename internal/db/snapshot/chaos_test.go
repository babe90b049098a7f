// The crash-restart chaos suite for the durable snapshot path, designed to
// run under -race like internal/guard's. For every fault-injection site in
// the writer and every hit count of that site, the writer is killed
// mid-publication; the "restarted" loader must then either recover the
// previous intact snapshot or observe the new one fully published — never
// a torn or corrupt file. Torn-write and bit-rot sweeps drive the loader
// over every truncation point and flipped byte of a real snapshot and
// require a typed refusal each time.
package snapshot_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/guard"
)

// versionedDB builds a sealed database whose content is distinguishable by
// version number, so recovery tests can tell which snapshot a load served.
func versionedDB(v int) *db.Database {
	d := db.New()
	for i := 0; i < 40; i++ {
		d.Insert("edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+v)%40))
	}
	d.Insert("version", strconv.Itoa(v))
	d.Seal()
	return d
}

// writerSites are the fault sites the crash-restart sweep drives; the read
// site is exercised separately since it fails loads, not publications.
var writerSites = []string{
	guard.SiteSnapshotWrite,
	guard.SiteSnapshotFsync,
	guard.SiteSnapshotRename,
}

// countSiteHits runs one clean Write under a rule-free injector and
// returns how many times each writer site is evaluated, so the sweep can
// kill the writer at every one of them.
func countSiteHits(t *testing.T) map[string]int64 {
	t.Helper()
	dir := t.TempDir()
	in := guard.NewInjector(1)
	restore := guard.Activate(in)
	defer restore()
	if err := snapshot.Write(filepath.Join(dir, "count.snap"), versionedDB(2)); err != nil {
		t.Fatalf("clean Write under counting injector: %v", err)
	}
	hits := make(map[string]int64)
	for _, site := range writerSites {
		hits[site] = in.Hits(site)
		if hits[site] == 0 {
			t.Fatalf("site %s was never evaluated during Write: the trigger point is dead", site)
		}
	}
	return hits
}

// TestChaosCrashRestartEverySite kills the writer at every hit of every
// writer fault site and asserts the crash-restart contract: Write fails
// with an errors.Is-matchable injected fault, and a subsequent load serves
// either the previous intact snapshot (v1) or — only when the crash landed
// after the atomic rename — the complete new one (v2). It must never serve
// a torn file or fail the load.
func TestChaosCrashRestartEverySite(t *testing.T) {
	hits := countSiteHits(t)
	v1, v2 := versionedDB(1), versionedDB(2)
	for _, site := range writerSites {
		for n := int64(1); n <= hits[site]; n++ {
			t.Run(fmt.Sprintf("%s/hit%d", site, n), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "data.snap")
				if err := snapshot.Write(path, v1); err != nil {
					t.Fatalf("publish v1: %v", err)
				}
				in := guard.NewInjector(7).FailNth(site, n)
				restore := guard.Activate(in)
				err := snapshot.Write(path, v2)
				restore()
				if err == nil {
					t.Fatalf("injected fault at %s hit %d did not fail the Write", site, n)
				}
				if !errors.Is(err, guard.ErrInjected) {
					t.Fatalf("Write failed with %v, not matchable with ErrInjected", err)
				}
				got, err := snapshot.Read(path)
				if err != nil {
					t.Fatalf("restart load after crash at %s hit %d: %v", site, n, err)
				}
				switch got.String() {
				case v1.String():
					// Crash before publication: previous snapshot intact.
				case v2.String():
					if site != guard.SiteSnapshotFsync {
						t.Fatalf("crash at %s hit %d before rename, yet load served v2", site, n)
					}
					// The directory-fsync hit lands after the rename: the
					// new file is visible and complete, just not provably
					// durable. Serving it is correct.
				default:
					t.Fatalf("restart load after crash at %s hit %d served torn data:\n%s", site, n, got.String())
				}
				// The failed writer must not leave temp files behind
				// (except after the rename, when there is nothing to
				// leave).
				entries, derr := os.ReadDir(dir)
				if derr != nil {
					t.Fatalf("ReadDir: %v", derr)
				}
				if len(entries) != 1 {
					names := make([]string, len(entries))
					for i, e := range entries {
						names[i] = e.Name()
					}
					t.Errorf("crash at %s hit %d left extra files: %v", site, n, names)
				}
			})
		}
	}
}

// TestChaosReadFault pins the loader-side site: an injected read fault
// surfaces as ErrInjected without touching the file.
func TestChaosReadFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	if err := snapshot.Write(path, versionedDB(1)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	in := guard.NewInjector(3).FailNth(guard.SiteSnapshotRead, 1)
	restore := guard.Activate(in)
	_, err := snapshot.Read(path)
	restore()
	if !errors.Is(err, guard.ErrInjected) {
		t.Fatalf("Read under injected fault: %v, want ErrInjected", err)
	}
	if _, err := snapshot.Read(path); err != nil {
		t.Fatalf("Read after restore: %v", err)
	}
}

// typedSnapshotError reports whether err wraps one of the loader's
// sentinels — the only failures a mangled file is allowed to produce.
func typedSnapshotError(err error) bool {
	for _, sentinel := range []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrChecksum, snapshot.ErrFormat,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// TestChaosTornWriteSweep decodes every truncation prefix of a real
// snapshot: each one must fail with a typed error — a torn write must
// never pass for a snapshot, whatever byte it tore at.
func TestChaosTornWriteSweep(t *testing.T) {
	data, err := snapshot.Encode(versionedDB(1))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(data); n++ {
		d, err := snapshot.Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
		if d != nil {
			t.Fatalf("truncation to %d bytes returned a database alongside the error", n)
		}
		if !typedSnapshotError(err) {
			t.Fatalf("truncation to %d bytes failed with untyped error: %v", n, err)
		}
	}
}

// TestChaosBitRotSweep flips every byte of a real snapshot in turn: each
// mutation must fail with a typed error, never load silently.
func TestChaosBitRotSweep(t *testing.T) {
	data, err := snapshot.Encode(versionedDB(1))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(mut, data)
		mut[i] ^= 0x01
		d, err := snapshot.Decode(mut)
		if err == nil {
			t.Fatalf("bit flip at offset %d decoded successfully", i)
		}
		if d != nil {
			t.Fatalf("bit flip at offset %d returned a database alongside the error", i)
		}
		if !typedSnapshotError(err) {
			t.Fatalf("bit flip at offset %d failed with untyped error: %v", i, err)
		}
	}
}
