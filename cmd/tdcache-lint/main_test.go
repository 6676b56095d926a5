package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tdcache/internal/analysis/driver"
)

// repoFindings lints the whole module once per test binary; both
// whole-repo tests below check the same result.
var repoFindings = sync.OnceValues(func() ([]finding, error) {
	return collect(".", []string{"./..."})
})

// TestRepositoryIsLintClean is the suite's own regression test: the
// tree must stay free of findings. It repeats what the CI lint job
// does, so a violation fails `go test ./...` locally too — this is
// what keeps the fig6b map-order sum and the cpu.L2 Reset annotations
// from regressing.
func TestRepositoryIsLintClean(t *testing.T) {
	findings, err := repoFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
	}
}

// TestCollectMatchesCheckedInBaseline is the -json / -baseline
// contract: the full-repo finding list round-trips through JSON and
// is fully absorbed by the checked-in (empty) baseline — i.e. CI's
// machine-readable lane agrees with the human one above.
func TestCollectMatchesCheckedInBaseline(t *testing.T) {
	findings, err := repoFindings()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(findings)
	if err != nil {
		t.Fatal(err)
	}
	var back []finding
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("-json output does not round-trip: %v", err)
	}
	if len(back) != len(findings) {
		t.Fatalf("round-trip lost findings: %d != %d", len(back), len(findings))
	}

	root, err := driver.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := loadBaseline(filepath.Join(root, "cmd/tdcache-lint/baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range filterNew(findings, baseline) {
		t.Errorf("finding not covered by baseline: %s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
	}
}

// TestRosterListsAllAnalyzers pins the `-list` surface: the suite is
// exactly the eleven rules the README documents, in sorted order,
// each with a usable one-line doc.
func TestRosterListsAllAnalyzers(t *testing.T) {
	want := []string{
		"atomiccheck", "closecheck", "detrand", "errflow", "floatcmp",
		"hotpath", "lifecycle", "lockcheck", "mapiter", "purecheck",
		"resetcheck",
	}
	if len(analyzers) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(analyzers), len(want))
	}
	for i, a := range analyzers {
		if a.Name != want[i] {
			t.Errorf("analyzers[%d] = %s, want %s (keep the list sorted)", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}

	lines := strings.Split(strings.TrimRight(roster(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), roster())
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, want[i]) {
			t.Errorf("-list line %d = %q, want prefix %q", i, line, want[i])
		}
		if fields := strings.Fields(line); len(fields) < 2 {
			t.Errorf("-list line %d has no doc: %q", i, line)
		}
	}
}

// TestBaselineFiltering pins the suppression-diff semantics: matching
// is by (rule, file, message) — line/column shifts do not un-suppress —
// and each baseline entry absorbs exactly one occurrence.
func TestBaselineFiltering(t *testing.T) {
	old := []finding{
		{Rule: "detrand", File: "a.go", Line: 10, Col: 2, Message: "ambient entropy"},
		{Rule: "floatcmp", File: "b.go", Line: 3, Col: 9, Message: "float == comparison"},
	}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	now := []finding{
		// Same finding, shifted by an unrelated edit: suppressed.
		{Rule: "detrand", File: "a.go", Line: 42, Col: 7, Message: "ambient entropy"},
		// Second occurrence of a baselined single occurrence: new.
		{Rule: "floatcmp", File: "b.go", Line: 3, Col: 9, Message: "float == comparison"},
		{Rule: "floatcmp", File: "b.go", Line: 8, Col: 1, Message: "float == comparison"},
		// Different rule on a baselined file: new.
		{Rule: "mapiter", File: "a.go", Line: 10, Col: 2, Message: "map iteration"},
	}
	fresh := filterNew(now, baseline)
	if len(fresh) != 2 {
		t.Fatalf("filterNew returned %d fresh findings, want 2: %+v", len(fresh), fresh)
	}
	if fresh[0].Rule != "floatcmp" || fresh[1].Rule != "mapiter" {
		t.Errorf("wrong findings survived: %+v", fresh)
	}

	if got := filterNew(nil, nil); len(got) != 0 {
		t.Errorf("filterNew(nil, nil) = %+v, want empty", got)
	}
}
