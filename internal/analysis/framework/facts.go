package framework

// Cross-package plumbing. Analyzers that summarize functions across a
// call graph (hotpath, purecheck) or index annotations declared in
// imported packages (lockcheck, atomiccheck, lifecycle, closecheck)
// need to see the *syntax* of imported packages, not just their type
// objects, and they need their run-wide state to be shared across the
// many passes of one lint run so each package is only scanned once.
// PackageSyntax is the window a driver provides onto an imported
// package; FactStore is the shared memo. Object identity is stable
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

// FactStore holds run-wide singletons (an analyzer's call graph or
// annotation index) built once and reused by every pass of a lint run.
// It is safe for concurrent use.
type FactStore struct {
	mu     sync.Mutex
	shared map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{shared: make(map[string]any)}
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
