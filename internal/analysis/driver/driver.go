// Package driver loads and type-checks packages for the determinism
// lint suite and runs analyzers over them.
//
// The loader is built entirely on the standard library (go/parser +
// go/types + go/importer) so the suite works in the offline build
// environment where golang.org/x/tools is unavailable. Imports inside
// the current module are resolved by walking the module tree directly;
// standard-library imports are type-checked from GOROOT source via the
// "source" compiler importer. Both paths are hermetic: no network, no
// GOPATH, no build cache.
//
// Lint is the standalone lane: one sequential pass that expands the
// patterns, loads each package, runs the roster with the suppression
// audit on, and returns module-relative, position-sorted findings.
//
// The Loader itself is safe for concurrent Load calls: package results
// are singleflight-memoized per import path, the position table is the
// (internally synchronized) shared token.FileSet, and the GOROOT
// source importer is serialized behind its own mutex. One shared
// FileSet — rather than one per package — is deliberate: analyzers
// compare raw token.Pos values across packages (DeclaredWithin,
// fact anchors), which is only sound when every file lives in a single
// position space.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tdcache/internal/analysis/framework"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory its files were read from.
	Dir string
	// Files are the non-test syntax trees, parsed with comments.
	Files []*ast.File
	// Types and Info are the type-checker's results.
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages by import path. Exactly one of the two modes
// is active:
//
//   - module mode (ModuleRoot/ModulePath set): paths under ModulePath
//     resolve to directories under ModuleRoot;
//   - tree mode (SrcRoot set): every path resolves to SrcRoot/<path>,
//     the layout analysistest uses for testdata packages.
//
// Standard-library paths resolve through the source importer in both
// modes. The same Loader must be reused across Load calls so
// mutually-importing packages share one type universe. Load is safe
// for concurrent use: each path is checked exactly once (singleflight)
// and other callers block until the first finishes.
type Loader struct {
	Fset *token.FileSet

	ModuleRoot string
	ModulePath string
	SrcRoot    string

	mu sync.Mutex
	//guard:mu
	entries map[string]*pkgEntry
	//guard:mu
	ctx *Context

	// stdMu serializes the GOROOT source importer, which keeps its own
	// unsynchronized package cache.
	stdMu sync.Mutex
	//guard:stdMu
	std types.ImporterFrom
}

// pkgEntry is the singleflight slot for one import path: the first
// loader goroutine owns it and closes done when pkg/err are final.
type pkgEntry struct {
	done chan struct{}
	pkg  *Package
	err  error
}

// NewModuleLoader returns a loader for the module rooted at dir (the
// directory containing go.mod).
func NewModuleLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{Fset: token.NewFileSet(), ModuleRoot: root, ModulePath: modPath}, nil
}

// NewTreeLoader returns a loader resolving import paths under srcRoot.
func NewTreeLoader(srcRoot string) *Loader {
	return &Loader{Fset: token.NewFileSet(), SrcRoot: srcRoot}
}

// modulePath extracts the module path from a go.mod file. The module
// keyword must be followed by whitespace — a line like "modulex foo"
// declares nothing.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(line, "module")
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		path := strings.Trim(strings.TrimSpace(rest), `"`)
		if path == "" {
			continue
		}
		return path, nil
	}
	return "", fmt.Errorf("driver: no module line in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("driver: resolving %s: %w", dir, err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("driver: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// dirFor maps an import path to a directory, or "" when the path is
// outside the loader's tree (a standard-library import).
func (l *Loader) dirFor(path string) string {
	if l.SrcRoot != "" {
		dir := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
		return ""
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
	}
	return ""
}

// Load returns the type-checked package for an import path inside the
// loader's tree.
func (l *Loader) Load(path string) (*Package, error) {
	return l.load(path, nil)
}

// Loaded returns the already-loaded package for path without loading
// anything, or nil. It does not block on loads in flight.
func (l *Loader) Loaded(path string) *Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[path]
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
		return e.pkg
	default:
		return nil
	}
}

// load is Load with the in-progress import stack threaded through for
// cycle detection. The stack is per-recursion (one type-check descends
// through its imports on a single goroutine), so a cycle always shows
// up as a repeated path within one stack; cross-goroutine waits only
// occur on acyclic entries and therefore terminate.
func (l *Loader) load(path string, stack []string) (*Package, error) {
	for i, p := range stack {
		if p == path {
			return nil, fmt.Errorf("driver: import cycle: %s -> %s",
				strings.Join(stack[i:], " -> "), path)
		}
	}
	l.mu.Lock()
	if e, ok := l.entries[path]; ok {
		l.mu.Unlock()
		<-e.done
		return e.pkg, e.err
	}
	e := &pkgEntry{done: make(chan struct{})}
	if l.entries == nil {
		l.entries = make(map[string]*pkgEntry)
	}
	l.entries[path] = e
	l.mu.Unlock()

	dir := l.dirFor(path)
	if dir == "" {
		e.err = fmt.Errorf("driver: %s is not inside the loaded tree", path)
	} else {
		e.pkg, e.err = l.check(path, dir, append(stack, path))
	}
	if e.err != nil {
		// Un-memoize failures so a later load (after the tree is fixed,
		// or from a non-cyclic chain) retries instead of replaying the
		// stale error.
		l.mu.Lock()
		delete(l.entries, path)
		l.mu.Unlock()
	}
	close(e.done)
	return e.pkg, e.err
}

// sourceFiles lists the non-test Go files of dir in sorted order.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// check parses and type-checks the package in dir.
func (l *Loader) check(path, dir string, stack []string) (*Package, error) {
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("driver: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: &loaderImporter{l: l, stack: stack}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// loaderImporter adapts a Loader to types.Importer for one check,
// carrying the in-progress import stack so cycles are reported as
// errors instead of deadlocking the singleflight table. Paths outside
// the tree fall back to the GOROOT source importer.
type loaderImporter struct {
	l     *Loader
	stack []string
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if li.l.dirFor(path) != "" {
		p, err := li.l.load(path, li.stack)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return li.l.importStd(path)
}

// importStd resolves a standard-library import through the shared
// GOROOT source importer, serialized because the importer keeps an
// unsynchronized internal package cache.
func (l *Loader) importStd(path string) (*types.Package, error) {
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	if l.std == nil {
		l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("driver: importing %s: %w", path, err)
	}
	return pkg, nil
}

// Expand resolves command-line patterns ("./...", "./internal/core",
// "internal/...") into import paths within the module, skipping
// testdata, vendor, and hidden directories. Only module mode supports
// patterns. The skip applies below the walk root only: a pattern that
// names a skipped directory explicitly ("./testdata/...") still
// expands, matching cmd/go's behavior.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if l.ModuleRoot == "" {
		return nil, fmt.Errorf("driver: patterns need a module loader")
	}
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		path := l.ModulePath
		if rel != "." && rel != "" {
			path += "/" + rel
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		if pat == "" {
			pat = "."
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			base := l.ModuleRoot
			if ok && rest != "" && rest != "." {
				base = filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
			}
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					rel, err := filepath.Rel(l.ModuleRoot, p)
					if err != nil {
						return err
					}
					add(rel)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("driver: expanding %s: %w", pat, err)
			}
			continue
		}
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(pat))
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("driver: no Go files in %s", dir)
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, fmt.Errorf("driver: expanding %s: %w", pat, err)
		}
		add(rel)
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") &&
			!strings.HasSuffix(e.Name(), "_test.go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// Context carries the run-wide state shared by every Run call of one
// lint invocation: the position table, a window onto imported-package
// syntax for fact extraction, and the cross-package fact memo.
type Context struct {
	Fset *token.FileSet
	// Imported returns the syntax of an imported package, or nil when
	// the driver cannot supply it (the vet unitchecker protocol ships
	// only export data). May itself be nil.
	Imported func(path string) *framework.PackageSyntax
	// Facts is the shared cross-package fact memo.
	Facts *framework.FactStore
	// AuditSuppressions extends the allowcheck hygiene pass after
	// filtering: stale `//lint:allow` directives (nothing suppressed)
	// and surviving directives whose reason names no proof test become
	// findings. Only the standalone lint lane sets it — it needs the
	// complete view (every analyzer, cross-package syntax available);
	// in vet mode, where analyzers degrade to intra-package facts, a
	// live directive could look stale. analysistest leaves it off so
	// single-analyzer fixture runs are not judged by suite-wide rules.
	// Directives naming a rule outside the run's analyzers are
	// reported either way.
	AuditSuppressions bool

	// lockMu guards the lazily-built per-analyzer lock table below.
	lockMu sync.Mutex
	//guard:lockMu
	analyzerMu map[string]*sync.Mutex
}

// analyzerLock returns the mutex serializing runs of one analyzer
// across packages. Analyzers share run-wide state (call graphs, fact
// scans) through FactStore.Shared without internal locking; holding
// this lock during each Run is what lets a caller analyze different
// packages concurrently while every individual analyzer still sees the
// sequential world it was written for.
func (c *Context) analyzerLock(name string) *sync.Mutex {
	c.lockMu.Lock()
	defer c.lockMu.Unlock()
	if c.analyzerMu == nil {
		c.analyzerMu = make(map[string]*sync.Mutex)
	}
	mu := c.analyzerMu[name]
	if mu == nil {
		mu = new(sync.Mutex)
		c.analyzerMu[name] = mu
	}
	return mu
}

// Context returns a run context backed by this loader: imported
// packages resolve through Load (memoized), so analyzers see the same
// syntax and type objects the loader produced. The context is created
// once per loader and reused, keeping the fact store shared across
// packages.
func (l *Loader) Context() *Context {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx == nil {
		l.ctx = &Context{
			Fset:  l.Fset,
			Facts: framework.NewFactStore(),
			Imported: func(path string) *framework.PackageSyntax {
				p, err := l.Load(path)
				if err != nil {
					return nil
				}
				return &framework.PackageSyntax{Files: p.Files, Pkg: p.Types, Info: p.Info}
			},
		}
	}
	return l.ctx
}

// Run executes every analyzer over pkg and returns the diagnostics
// that survive `//lint:allow` suppression, in position order
// (file, line, column, rule) with exact duplicates removed. The
// ordering and dedup contract is unconditional so the standalone, vet,
// and analysistest lanes agree byte for byte. Each analyzer runs under
// its run-wide lock; see Context.analyzerLock.
func Run(analyzers []*framework.Analyzer, pkg *Package, ctx *Context) ([]framework.Diagnostic, error) {
	var diags []framework.Diagnostic
	sink := func(d framework.Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		pass := framework.NewPass(a, ctx.Fset, pkg.Files, pkg.Types, pkg.Info, sink)
		pass.Imported = ctx.Imported
		pass.Facts = ctx.Facts
		if err := runOneAnalyzer(a, pass, ctx); err != nil {
			return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sup := framework.CollectSuppressions(ctx.Fset, pkg.Files)
	out := sup.Filter(diags)
	roster := map[string]bool{framework.AllowCheckRule: true}
	for _, a := range analyzers {
		roster[a.Name] = true
	}
	// Audit findings are themselves suppressible (`//lint:allow
	// allowcheck <reason>` on the directive's line); allowcheck
	// directives are exempt from the audit, so this terminates.
	out = append(out, sup.Filter(sup.Audit(roster, ctx.AuditSuppressions))...)
	framework.SortDiagnostics(ctx.Fset, out)
	return framework.DedupeDiagnostics(ctx.Fset, out), nil
}

// runOneAnalyzer runs a single analyzer under its lock.
func runOneAnalyzer(a *framework.Analyzer, pass *framework.Pass, ctx *Context) error {
	mu := ctx.analyzerLock(a.Name)
	mu.Lock()
	defer mu.Unlock()
	return a.Run(pass)
}

// Diag is one rendered diagnostic: the position is resolved to a
// module-root-relative file path so baselines are stable across
// checkouts. It is the findings wire format of the standalone lane's
// -json output.
type Diag struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Lint runs the analyzers over the patterns' packages in the module
// rooted at root, one package after another, with the suppression
// audit on. Paths under a testdata directory are dropped after
// expansion: those trees are analyzer fixtures, not code. The result
// is sorted by SortDiags and never nil.
func Lint(root string, patterns []string, analyzers []*framework.Analyzer) ([]Diag, error) {
	loader, err := NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	ctx := loader.Context()
	ctx.AuditSuppressions = true
	out := []Diag{}
	for _, path := range paths {
		if strings.Contains(path, "/testdata/") {
			continue
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		diags, err := Run(analyzers, pkg, ctx)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			out = append(out, Diag{
				Rule: d.Rule, File: relativeTo(root, pos.Filename),
				Line: pos.Line, Col: pos.Column, Message: d.Message,
			})
		}
	}
	SortDiags(out)
	return out, nil
}

// relativeTo renders file relative to root (slash-separated) when it
// lies inside it, which every module file does; GOROOT paths (never in
// diagnostics, but defensively) stay absolute.
func relativeTo(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}

// SortDiags orders rendered diagnostics by file, line, column, rule,
// message — the standalone lane's single output ordering.
func SortDiags(diags []Diag) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
