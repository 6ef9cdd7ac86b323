package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The -fix machinery tests: fixes are applied to copies under a temp dir,
// and convergence is checked by re-running the analyzer over the fixed
// file — the same sequence the driver performs.

func fixRound(t *testing.T, path string, a *Analyzer) (diags []Diagnostic, changed []string) {
	t.Helper()
	pkg, err := LoadFiles(moduleRoot(), path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	diags, err = RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	changed, err = ApplyFixes(diags)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	return diags, changed
}

func TestApplyFixesInsertsSort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fixme.go")
	src := `package fixme

import (
	"fmt"
)

func Dump(set map[string]int) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	fmt.Println(keys)
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}

	diags, changed := fixRound(t, path, MapOrder)
	if len(diags) == 0 {
		t.Fatal("expected a maporder finding before the fix")
	}
	if len(changed) != 1 {
		t.Fatalf("ApplyFixes changed %v, want just the fixture", changed)
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixed file: %v", err)
	}
	if !strings.Contains(string(fixed), "slices.Sort(keys)") {
		t.Errorf("fix did not insert the sort:\n%s", fixed)
	}
	if !strings.Contains(string(fixed), `"slices"`) {
		t.Errorf("fix did not add the slices import:\n%s", fixed)
	}

	// Second round: the fixed file analyzes clean and nothing changes —
	// the fix converges.
	diags, changed = fixRound(t, path, MapOrder)
	if len(diags) != 0 || len(changed) != 0 {
		t.Errorf("fix did not converge: %d finding(s), changed %v", len(diags), changed)
	}
}

func TestApplyFixesPreallocatesHotSlice(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fixme.go")
	src := `package fixme

// Collect gathers the positive values.
//
//mce:hotpath fix fixture root
func Collect(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}

	diags, changed := fixRound(t, path, HotSlice)
	if len(diags) != 1 {
		t.Fatalf("got %d finding(s) before the fix, want 1:\n%v", len(diags), diags)
	}
	if len(changed) != 1 {
		t.Fatalf("ApplyFixes changed %v, want just the fixture", changed)
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixed file: %v", err)
	}
	if !strings.Contains(string(fixed), "var out = make([]int, 0, len(xs))") {
		t.Errorf("fix did not preallocate:\n%s", fixed)
	}

	diags, changed = fixRound(t, path, HotSlice)
	if len(diags) != 0 || len(changed) != 0 {
		t.Errorf("fix did not converge: %d finding(s), changed %v", len(diags), changed)
	}
}

func TestApplyFixesNoDiagnosticsNoWrites(t *testing.T) {
	changed, err := ApplyFixes(nil)
	if err != nil || len(changed) != 0 {
		t.Errorf("ApplyFixes(nil) = %v, %v; want no changes", changed, err)
	}
}
