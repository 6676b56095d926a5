package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tdcache/internal/core"
)

// namedSchemes returns the names of internal/core's package-level vars
// initialized with a core.Scheme literal — the closed set of named
// schemes — sorted.
func namedSchemes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../core", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["core"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, v := range vs.Values {
					if lit, ok := v.(*ast.CompositeLit); ok {
						if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "Scheme" {
							names = append(names, vs.Names[i].Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestSchemeDispatch drives every named scheme through schemeKey and
// shortScheme, the switches over core.Scheme values. A scheme with no
// arm falls back to its String form, which the checks reject.
func TestSchemeDispatch(t *testing.T) {
	members := map[string]core.Scheme{
		"NoRefreshLRU": core.NoRefreshLRU, "PartialRefreshDSP": core.PartialRefreshDSP,
		"RSPFIFO": core.RSPFIFO, "RSPLRU": core.RSPLRU,
	}
	got := make([]string, 0, len(members))
	for name := range members {
		got = append(got, name)
	}
	sort.Strings(got)
	if want := namedSchemes(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("member table %v, declared %v: add a row for every named scheme", got, want)
	}
	sites := map[string]func(core.Scheme) string{"schemeKey": schemeKey, "shortScheme": shortScheme}
	for site, fn := range sites {
		seen := make(map[string]string)
		for name, s := range members {
			got := fn(s)
			if got == s.String() {
				t.Errorf("%s(%s) falls back to String %q: missing arm", site, name, got)
			}
			if prev, dup := seen[got]; dup {
				t.Errorf("%s(%s) = %q, same as %s", site, name, got, prev)
			}
			seen[got] = name
		}
	}
}
