// Command tdcache-lint is the determinism, physical-correctness,
// concurrency-safety, and error-discipline lint suite: it runs the
// three reproducibility analyzers (detrand, mapiter, resetcheck), the
// float-comparison analyzer (floatcmp), the two interprocedural
// call-graph analyzers (hotpath, purecheck), the three concurrency
// analyzers (lockcheck, atomiccheck, lifecycle), and the two
// error-and-resource analyzers (errflow, closecheck) over the
// repository and fails on any finding.
// `tdcache-lint -list` prints the roster.
//
// Two invocation modes:
//
//	tdcache-lint ./...                          # standalone, from module root
//	go vet -vettool=$(which tdcache-lint) ./... # as a vet tool
//
// Standalone mode loads and type-checks packages itself (offline, pure
// stdlib); vet mode speaks the cmd/go unitchecker protocol — the go
// command hands the tool a JSON config per package with pre-built
// export data, which is faster and composes with go vet's caching.
//
// Findings are suppressed line-by-line with
//
//	//lint:allow <rule> <reason>
//
// either trailing the offending line or standalone on the line above.
// The reason is mandatory. See the "Determinism invariants" section of
// README.md for the rules themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tdcache/internal/analysis/atomiccheck"
	"tdcache/internal/analysis/closecheck"
	"tdcache/internal/analysis/detrand"
	"tdcache/internal/analysis/driver"
	"tdcache/internal/analysis/errflow"
	"tdcache/internal/analysis/floatcmp"
	"tdcache/internal/analysis/framework"
	"tdcache/internal/analysis/hotpath"
	"tdcache/internal/analysis/lifecycle"
	"tdcache/internal/analysis/lockcheck"
	"tdcache/internal/analysis/mapiter"
	"tdcache/internal/analysis/purecheck"
	"tdcache/internal/analysis/resetcheck"
)

// analyzers is the full suite — the three determinism rules, the
// float-comparison rule, the two call-graph rules, the three
// concurrency rules, and the two error-and-resource rules — in
// reporting order.
var analyzers = []*framework.Analyzer{
	atomiccheck.Analyzer,
	closecheck.Analyzer,
	detrand.Analyzer,
	errflow.Analyzer,
	floatcmp.Analyzer,
	hotpath.Analyzer,
	lifecycle.Analyzer,
	lockcheck.Analyzer,
	mapiter.Analyzer,
	purecheck.Analyzer,
	resetcheck.Analyzer,
}

func main() {
	progname := filepath.Base(os.Args[0])
	args := os.Args[1:]

	// The go command probes vet tools before use: -V=full must print a
	// version line usable as a build ID, and -flags must dump the
	// tool's flag schema as JSON.
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "--V=full") {
		fmt.Printf("%s version devel comments-go-here buildID=devel\n", progname)
		return
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		// Unitchecker mode: `go vet -vettool=...` invokes the tool once
		// per package with a config file.
		unitcheck(args[0])
		return
	}
	if len(args) == 1 && (args[0] == "-list" || args[0] == "--list") {
		os.Stdout.WriteString(roster())
		return
	}

	standalone(args)
}

// roster renders the analyzer list with one-line docs, one rule per
// line, for `tdcache-lint -list`.
func roster() string {
	var b strings.Builder
	width := 0
	for _, a := range analyzers {
		if len(a.Name) > width {
			width = len(a.Name)
		}
	}
	for _, a := range analyzers {
		// One line per rule: collapse whitespace, keep the first
		// clause, and cap the width so the roster scans as a table.
		doc := strings.Join(strings.Fields(a.Doc), " ")
		if i := strings.Index(doc, "; "); i > 0 {
			doc = doc[:i]
		}
		const maxDoc = 100
		if len(doc) > maxDoc {
			if i := strings.LastIndex(doc[:maxDoc], " "); i > 0 {
				doc = doc[:i] + " ..."
			}
		}
		fmt.Fprintf(&b, "%-*s  %s\n", width, a.Name, strings.TrimRight(doc, " ,"))
	}
	return b.String()
}

// finding is the machine-readable form of one diagnostic — the
// driver's rendered wire type, whose file is module-root-relative so
// baselines are stable across checkouts.
type finding = driver.Diag

// findingKey identifies a finding for baseline matching. Line and
// column are deliberately excluded so unrelated edits that shift a
// suppressed legacy finding do not break the baseline.
func findingKey(f finding) string { return f.Rule + "\x00" + f.File + "\x00" + f.Message }

// standalone loads packages from directory patterns and reports every
// surviving finding, exiting 1 if any is not covered by the baseline.
func standalone(args []string) {
	fs := flag.NewFlagSet("tdcache-lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	baselineFile := fs.String("baseline", "", "JSON findings file; only findings absent from it fail the run")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-json] [-baseline file] ./... (run from inside the module)\n", fs.Name())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	baseline := make(map[string]int)
	if *baselineFile != "" {
		var err error
		baseline, err = loadBaseline(*baselineFile)
		if err != nil {
			fatal(err)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	findings, err := collect(cwd, patterns)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	}
	fresh := filterNew(findings, baseline)
	if !*jsonOut {
		for _, f := range fresh {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Rule, f.Message)
		}
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "tdcache-lint: %d new finding(s)\n", len(fresh))
		os.Exit(1)
	}
}

// loadBaseline reads a -json findings file into a key multiset.
func loadBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var old []finding
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]int)
	for _, f := range old {
		baseline[findingKey(f)]++
	}
	return baseline, nil
}

// collect runs the full suite over the patterns (resolved against the
// module containing dir) and returns every finding with module-root-
// relative file paths. The standalone lane sees full source for every
// package, so live suppressions are provably live and driver.Lint runs
// the allowcheck audit. The result is never nil, so it always encodes
// as a JSON array.
func collect(dir string, patterns []string) ([]finding, error) {
	root, err := driver.FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	return driver.Lint(root, patterns, analyzers)
}

// filterNew returns the findings not absorbed by the baseline multiset
// (each baseline entry suppresses at most one identical finding).
func filterNew(findings []finding, baseline map[string]int) []finding {
	fresh := []finding{}
	for _, f := range findings {
		if n := baseline[findingKey(f)]; n > 0 {
			baseline[findingKey(f)] = n - 1
			continue
		}
		fresh = append(fresh, f)
	}
	return fresh
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdcache-lint:", err)
	os.Exit(1)
}
