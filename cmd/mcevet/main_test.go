package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module so the driver can
// be exercised end to end (go list + type-check + analyze) without touching
// the real tree.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":  "module mcevetfixture\n\ngo 1.22\n",
		"main.go": src,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	return dir
}

func TestListExitsZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, want 0 (stderr: %s)", code, errb.String())
	}
	for _, name := range []string{
		"ctxplumb", "lockbalance", "sortedadj", "wiretypes",
		"maporder",
		"lockorder", "golifecycle", "chandiscipline", "casloop",
		"hotalloc", "hotbox", "hotdefer", "hotslice",
		"staleignore",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output is missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("run(-run nope) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr does not explain the failure: %s", errb.String())
	}
}

// TestSeededViolationFailsTheGate is the acceptance check for the merge
// gate: a tree with a planted invariant violation must make the driver exit
// non-zero and name the analyzer.
func TestSeededViolationFailsTheGate(t *testing.T) {
	dir := writeModule(t, `package main

import "time"

// Nap blocks with no Context variant: a ctxplumb violation.
func Nap() {
	time.Sleep(time.Millisecond)
}

func main() {}
`)
	var out, errb strings.Builder
	code := run([]string{"-C", dir, "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run on seeded violation = %d, want 1 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ctxplumb") || !strings.Contains(out.String(), "NapContext") {
		t.Errorf("diagnostic does not name the analyzer and the missing variant:\n%s", out.String())
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, `package main

import "fmt"

func main() {
	fmt.Println("clean")
}
`)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != 0 {
		t.Fatalf("run on clean module = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, `package main

import "time"

func Nap() {
	time.Sleep(time.Millisecond)
}

func main() {}
`)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run -json = %d, want 1 (stderr: %s)", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, `"analyzer": "ctxplumb"`) || !strings.Contains(s, `"line"`) {
		t.Errorf("JSON output missing expected fields:\n%s", s)
	}
}

func TestJSONAndSARIFMutuallyExclusive(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-json", "-sarif"}, &out, &errb); code != 2 {
		t.Fatalf("run(-json -sarif) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "mutually exclusive") {
		t.Errorf("stderr does not explain the conflict: %s", errb.String())
	}
}

// TestSARIFOutput checks the -sarif report parses and carries the fields
// GitHub code scanning requires: schema version, driver name, rule metadata,
// and a physical location per result.
func TestSARIFOutput(t *testing.T) {
	dir := writeModule(t, `package main

import "time"

func Nap() {
	time.Sleep(time.Millisecond)
}

func main() {}
`)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-sarif", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run -sarif = %d, want 1 (stderr: %s)", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "mcevet" {
		t.Fatalf("SARIF driver missing or misnamed:\n%s", out.String())
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	if len(log.Runs[0].Results) == 0 {
		t.Fatal("SARIF report has no results for a seeded violation")
	}
	for _, res := range log.Runs[0].Results {
		if !rules[res.RuleID] {
			t.Errorf("result ruleId %q has no matching rule entry", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result %q has %d locations, want 1", res.RuleID, len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("uriBaseId = %q, want %%SRCROOT%%", loc.ArtifactLocation.URIBaseID)
		}
		if filepath.IsAbs(loc.ArtifactLocation.URI) || loc.Region.StartLine <= 0 {
			t.Errorf("location not repo-relative with a line: %+v", loc)
		}
	}
}

// TestRunAcceptsPackagePatterns pins the -run grammar: analyzer names and
// package patterns mix freely in one flag value.
func TestRunAcceptsPackagePatterns(t *testing.T) {
	dir := writeModule(t, `package main

import "time"

func Nap() {
	time.Sleep(time.Millisecond)
}

func main() {}
`)
	// ctxplumb selected alongside the pattern: the violation is found.
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-run", "ctxplumb,./..."}, &out, &errb); code != 1 {
		t.Fatalf("run(-run ctxplumb,./...) = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "ctxplumb") {
		t.Errorf("finding does not name ctxplumb:\n%s", out.String())
	}
	// Only maporder selected: the ctxplumb violation is invisible.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-run", "maporder,./..."}, &out, &errb); code != 0 {
		t.Fatalf("run(-run maporder,./...) = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
}

// git runs a git command in dir with identity pinned, failing the test on
// error.
func git(t *testing.T, dir string, args ...string) {
	t.Helper()
	full := append([]string{"-C", dir, "-c", "user.email=test@test", "-c", "user.name=test"}, args...)
	if out, err := exec.Command("git", full...).CombinedOutput(); err != nil {
		t.Fatalf("git %v: %v\n%s", args, err, out)
	}
}

// TestDiffMode checks the changed-package selection: editing one package
// selects it plus its importers, and an untouched tree selects nothing.
func TestDiffMode(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module mcevetfixture\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc A() int { return 1 }\n",
		"b/b.go": "package b\n\nimport \"mcevetfixture/a\"\n\nfunc B() int { return a.A() }\n",
		"c/c.go": "package c\n\nfunc C() int { return 3 }\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	git(t, dir, "init", "-q")
	git(t, dir, "add", ".")
	git(t, dir, "commit", "-q", "-m", "seed")

	// Untouched tree: -diff selects nothing and the driver exits clean.
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-diff", "HEAD"}, &out, &errb); code != 0 {
		t.Fatalf("run -diff on untouched tree = %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no Go packages changed") {
		t.Errorf("stderr does not report the empty selection: %s", errb.String())
	}

	// Editing a must select a and its importer b, never the unrelated c.
	if err := os.WriteFile(filepath.Join(dir, "a", "a.go"),
		[]byte("package a\n\nfunc A() int { return 2 }\n"), 0o644); err != nil {
		t.Fatalf("editing a: %v", err)
	}
	changed, err := changedPackages(dir, "HEAD")
	if err != nil {
		t.Fatalf("changedPackages: %v", err)
	}
	got := strings.Join(changed, " ")
	if !strings.Contains(got, "mcevetfixture/a") || !strings.Contains(got, "mcevetfixture/b") {
		t.Errorf("changedPackages = %v, want a and its importer b", changed)
	}
	if strings.Contains(got, "mcevetfixture/c") {
		t.Errorf("changedPackages selected unrelated package c: %v", changed)
	}
}

// TestFixMode drives -fix end to end: a maporder violation is repaired in
// place, the automatic re-run comes back clean, and the driver exits 0.
func TestFixMode(t *testing.T) {
	dir := writeModule(t, `package main

import (
	"fmt"
)

func main() {
	set := map[string]int{"a": 1}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	fmt.Println(keys)
}
`)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-fix", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("run -fix = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "fixed") {
		t.Errorf("stderr does not report the fixed file: %s", errb.String())
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "main.go"))
	if err != nil {
		t.Fatalf("reading fixed file: %v", err)
	}
	if !strings.Contains(string(fixed), "slices.Sort(keys)") || !strings.Contains(string(fixed), `"slices"`) {
		t.Errorf("-fix did not repair the violation:\n%s", fixed)
	}
}

// TestAllocBudgetCycle drives the perf gate end to end, pinning the
// acceptance criterion of the hot-path layer: a hot allocation fails until
// -update-allocbudget accepts it, deleting the budget entry re-arms the
// gate, and a planted fmt call in a hot loop fails regardless of budget.
func TestAllocBudgetCycle(t *testing.T) {
	dir := writeModule(t, `package main

// Enumerate is this module's annotated enumeration root.
//
//mce:hotpath fixture enumeration root
func Enumerate(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func main() { Enumerate(10) }
`)
	hotArgs := []string{"-C", dir, "-run", "hotalloc,hotbox,hotdefer,hotslice", "./..."}

	// 1. No budget: the returned make() escapes and fails the gate.
	var out, errb strings.Builder
	if code := run(hotArgs, &out, &errb); code != 1 {
		t.Fatalf("run with no budget = %d, want 1 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "hotalloc") || !strings.Contains(out.String(), "not in budget") {
		t.Errorf("diagnostic does not name the analyzer and the missing budget:\n%s", out.String())
	}

	// 2. Accept the site the way a human would, then the gate passes.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-update-allocbudget"}, &out, &errb); code != 0 {
		t.Fatalf("-update-allocbudget = %d, want 0 (stderr: %s)", code, errb.String())
	}
	budgetPath := filepath.Join(dir, ".mcevet", "allocbudget.json")
	raw, err := os.ReadFile(budgetPath)
	if err != nil {
		t.Fatalf("budget file was not written: %v", err)
	}
	if !strings.Contains(string(raw), "make([]int, n) escapes to heap") {
		t.Errorf("budget file does not carry the accepted site:\n%s", raw)
	}
	out.Reset()
	errb.Reset()
	if code := run(hotArgs, &out, &errb); code != 0 {
		t.Fatalf("run with budget = %d, want 0 (stdout: %s)", code, out.String())
	}

	// 3. Deleting the entry re-arms the gate.
	if err := os.WriteFile(budgetPath, []byte(`{"sites": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(hotArgs, &out, &errb); code != 1 {
		t.Fatalf("run after deleting the budget entry = %d, want 1 (stdout: %s)", code, out.String())
	}

	// 4. A fmt call planted in the hot loop fails even with a fresh budget:
	// hotbox findings are not budgetable.
	src := `package main

import "fmt"

// Enumerate is this module's annotated enumeration root.
//
//mce:hotpath fixture enumeration root
func Enumerate(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
		fmt.Sprintf("%d", i)
	}
	return out
}

func main() { Enumerate(10) }
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-update-allocbudget"}, &out, &errb); code != 0 {
		t.Fatalf("-update-allocbudget after edit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(hotArgs, &out, &errb); code != 1 {
		t.Fatalf("run with planted fmt.Sprintf = %d, want 1 (stdout: %s)", code, out.String())
	}
	if !strings.Contains(out.String(), "hotbox") || !strings.Contains(out.String(), "fmt.Sprintf") {
		t.Errorf("diagnostic does not name hotbox and the fmt call:\n%s", out.String())
	}
}
