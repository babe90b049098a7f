package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDataset(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSelfcheck boots the whole daemon on an ephemeral port and runs its
// built-in end-to-end probe — the same smoke scripts/check.sh performs.
func TestSelfcheck(t *testing.T) {
	music := writeDataset(t, "music.txt", "recorded_by(Swim, Caribou).\npublished(Swim, after_2010).\n")
	chain := writeDataset(t, "chain.txt", "E(0, 1).\nE(1, 2).\n")
	var stdout, stderr strings.Builder
	code := run([]string{"-selfcheck", "-dataset", "music=" + music, "-dataset", "chain=" + chain}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "selfcheck ok (2 dataset(s)") {
		t.Fatalf("stdout = %q, want a selfcheck ok summary", stdout.String())
	}
	if !strings.Contains(stdout.String(), "snapshot round-trip ok") {
		t.Fatalf("stdout = %q, want a snapshot round-trip ok line", stdout.String())
	}
}

func TestSelfcheckFailsOnBrokenDataset(t *testing.T) {
	bad := writeDataset(t, "bad.txt", "not a database(\n")
	var stdout, stderr strings.Builder
	if code := run([]string{"-selfcheck", "-dataset", "bad=" + bad}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2 (registry must refuse to start)", code)
	}
	if !strings.Contains(stderr.String(), `dataset "bad"`) {
		t.Fatalf("stderr = %q, want the dataset named", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no datasets: exit %d, want 2", code)
	}
	if code := run([]string{"-dataset", "nameonly"}, &stdout, &stderr); code != 2 {
		t.Fatalf("malformed -dataset: exit %d, want 2", code)
	}
	if code := run([]string{"-dataset", "d=a.txt", "-dataset", "d=b.txt"}, &stdout, &stderr); code != 2 {
		t.Fatalf("duplicate -dataset: exit %d, want 2", code)
	}
}
