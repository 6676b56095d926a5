package framework

// Cross-package fact plumbing. Analyzers that derive facts from source
// annotations (unitflow's //unit: tags) need to see the *syntax* of
// imported packages, not just their type objects, and they need the
// derived facts to be shared across the many passes of one lint run so
// each package's declarations are only parsed once. PackageSyntax is
// the window a driver provides onto an imported package; FactStore is
// the shared memo, keyed by types.Object — object identity is stable
// across passes because the driver type-checks every package in one
// shared universe.

import (
	"go/ast"
	"go/types"
	"sync"
)

// PackageSyntax is the source-level view of one loaded package.
type PackageSyntax struct {
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
}

// FactStore memoizes analyzer-derived facts keyed by the declaring
// types.Object, plus a per-package marker so an analyzer can record
// "this package's declarations have been scanned" and skip re-scans.
// It is safe for concurrent use.
//
// Object/SetObject are a single un-namespaced slot per object (the
// unitflow analyzer owns it, historically). Analyzers added later
// attach their facts through ObjectNS/SetObjectNS, which keep one
// independent namespace per analyzer so two rules can annotate the
// same function without clobbering each other; Shared holds run-wide
// singletons (the interprocedural call graph) built once and reused by
// every pass of a lint run.
type FactStore struct {
	mu     sync.Mutex
	objs   map[types.Object]any
	nsObjs map[nsKey]any
	shared map[string]any
	pkgs   map[*types.Package]bool
}

// nsKey keys a namespaced object fact.
type nsKey struct {
	ns  string
	obj types.Object
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objs:   make(map[types.Object]any),
		nsObjs: make(map[nsKey]any),
		shared: make(map[string]any),
		pkgs:   make(map[*types.Package]bool),
	}
}

// Object returns the fact recorded for obj, if any.
func (s *FactStore) Object(obj types.Object) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.objs[obj]
	return f, ok
}

// SetObject records a fact for obj.
func (s *FactStore) SetObject(obj types.Object, fact any) {
	if s == nil || obj == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objs[obj] = fact
}

// ObjectNS returns the fact recorded for obj in namespace ns, if any.
func (s *FactStore) ObjectNS(ns string, obj types.Object) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.nsObjs[nsKey{ns, obj}]
	return f, ok
}

// SetObjectNS records a fact for obj in namespace ns.
func (s *FactStore) SetObjectNS(ns string, obj types.Object, fact any) {
	if s == nil || obj == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nsObjs[nsKey{ns, obj}] = fact
}

// Shared returns the run-wide singleton stored under key, calling
// build exactly once (under the store's lock — keep build cheap) the
// first time the key is requested. With a nil store every call builds
// a fresh value, which degrades cleanly to per-pass state.
func (s *FactStore) Shared(key string, build func() any) any {
	if s == nil {
		return build()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.shared[key]; ok {
		return v
	}
	v := build()
	s.shared[key] = v
	return v
}

// MarkPackage records that pkg's declarations have been scanned and
// reports whether it was already marked.
func (s *FactStore) MarkPackage(pkg *types.Package) (alreadyMarked bool) {
	if s == nil || pkg == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pkgs[pkg] {
		return true
	}
	s.pkgs[pkg] = true
	return false
}
