package lint

import (
	"strings"
	"testing"
)

// TestAnalyzersOnFixtures drives every analyzer over its annotated fixtures:
// each case has at least one flagged and one clean file, and the // want
// annotations are checked in both directions (missing and unexpected
// findings both fail). Fixture sets in separate sublists are loaded as
// separate packages — wiretypes needs that, because gob.Register in the
// clean fixture would exempt the flagged one's interface field.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		loads    [][]string
	}{
		{CtxPlumb, [][]string{{"ctxplumb/flagged.go", "ctxplumb/clean.go"}}},
		{LockBalance, [][]string{{"lockbalance/flagged.go", "lockbalance/clean.go"}}},
		{SortedAdj, [][]string{{"sortedadj/flagged.go", "sortedadj/clean.go"}}},
		{WireTypes, [][]string{{"wiretypes/flagged.go"}, {"wiretypes/clean.go"}}},
		{MapOrder, [][]string{{"maporder/flagged.go", "maporder/clean.go", "maporder/suppressed.go"}}},
		{LockOrder, [][]string{{"lockorder/flagged.go", "lockorder/clean.go", "lockorder/suppressed.go"}}},
		{GoLifecycle, [][]string{{"golifecycle/flagged.go", "golifecycle/clean.go", "golifecycle/suppressed.go"}}},
		{ChanDiscipline, [][]string{{"chandiscipline/flagged.go", "chandiscipline/clean.go", "chandiscipline/suppressed.go", "chandiscipline/livelock.go"}}},
		{CasLoop, [][]string{{"casloop/flagged.go", "casloop/clean.go", "casloop/suppressed.go"}}},
		{HotAlloc, [][]string{{"hotalloc/flagged.go", "hotalloc/budgeted.go", "hotalloc/clean.go", "hotalloc/suppressed.go"}}},
		{HotBox, [][]string{{"hotbox/flagged.go", "hotbox/clean.go", "hotbox/suppressed.go"}}},
		{HotDefer, [][]string{{"hotdefer/flagged.go", "hotdefer/clean.go", "hotdefer/suppressed.go"}}},
		{HotSlice, [][]string{{"hotslice/flagged.go", "hotslice/clean.go", "hotslice/suppressed.go"}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			t.Parallel()
			for _, files := range tc.loads {
				RunFixture(t, tc.analyzer, files...)
			}
		})
	}
}

// TestSuiteIsComplete pins the advertised analyzer set: the Makefile gate
// and the docs both promise these fourteen. goroutineleak (superseded by the
// interprocedural golifecycle), atomicfield (absorbed into casloop) and
// telemetryguard (retired once every telemetry method became nil-receiver
// safe) are deliberately absent.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{
		"ctxplumb", "lockbalance", "sortedadj", "wiretypes",
		"maporder",
		"lockorder", "golifecycle", "chandiscipline", "casloop",
		"hotalloc", "hotbox", "hotdefer", "hotslice",
		"staleignore",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q is missing Doc", a.Name)
		}
		// staleignore is the one meta-analyzer: it has no per-package Run
		// and is dispatched by RunAnalyzers after the suite completes.
		if a.Run == nil && a.Name != "staleignore" {
			t.Errorf("analyzer %q is missing Run", a.Name)
		}
	}
}

// TestSelfClean runs the full suite over the repo itself: the tree must stay
// green, because make check gates merges on exactly this invocation.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := LoadTests(moduleRoot(), true, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("\n  " + d.String())
		}
		t.Errorf("the tree has %d unfixed finding(s); fix them or add a justified lint:ignore:%s", len(diags), b.String())
	}
}
