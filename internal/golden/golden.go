// Package golden compares test output with a checked-in file. The
// simulator's goldens (route table, Table I trace, simulated sweep
// records) all go through Check, so one switch regenerates them:
//
//	GEN_SIM_GOLDEN=1 go test ./internal/routing ./internal/experiments ./internal/sweep
//
// A regenerated golden needs a CHANGES.md line saying why the numbers
// moved (CONTRIBUTING.md).
package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check fails t unless got equals the file at path, naming the first
// line that differs. With GEN_SIM_GOLDEN set it writes got to path
// instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv("GEN_SIM_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing: %v (regenerate with GEN_SIM_GOLDEN=1)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		g, w := lineAt(gl, i), lineAt(wl, i)
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}
