package artifact

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// declaredConsts returns the names of this package's constants declared
// with the explicit type typ, sorted. The closed-enum tests compare
// their member tables against it, so a const added to the package
// without a table row fails the test instead of going unchecked.
func declaredConsts(t *testing.T, typ string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["artifact"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); ok && id.Name == typ {
					for _, n := range vs.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// memberNames renders a member table's keys, sorted, for comparison
// against declaredConsts.
func memberNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestKindDispatch checks Kinds, the one consumer that enumerates Kind
// (validKind and so Validate dispatch through it), against the declared
// members: a new kind missing from Kinds would fail validation.
func TestKindDispatch(t *testing.T) {
	members := map[string]Kind{
		"KindFigure": KindFigure, "KindTable": KindTable,
		"KindSection": KindSection, "KindExtension": KindExtension,
	}
	if got, want := memberNames(members), declaredConsts(t, "Kind"); !reflect.DeepEqual(got, want) {
		t.Fatalf("member table %v, declared %v: add a row for every Kind", got, want)
	}
	if len(Kinds()) != len(members) {
		t.Errorf("Kinds() = %v, want %d members", Kinds(), len(members))
	}
	for name, k := range members {
		tb := sample()
		tb.Kind = k
		if err := Validate(tb); err != nil {
			t.Errorf("%s: %v (missing from Kinds?)", name, err)
		}
	}
}

// TestColKindDispatch drives every ColKind through checkStorage, Len and
// Cell, the switches over ColKind. Each member needs a one-cell fixture;
// a member with no checkStorage arm fails validation.
func TestColKindDispatch(t *testing.T) {
	type fixture struct {
		col  Column
		cell string
	}
	members := map[string]fixture{
		"ColString": {Column{Kind: ColString, S: []string{"x"}}, "x"},
		"ColInt":    {Column{Kind: ColInt, I: []int64{7}}, "7"},
		"ColFloat":  {Column{Kind: ColFloat, F: []float64{0.5}}, "0.5"},
	}
	if got, want := memberNames(members), declaredConsts(t, "ColKind"); !reflect.DeepEqual(got, want) {
		t.Fatalf("member table %v, declared %v: add a fixture for every ColKind", got, want)
	}
	for name, fx := range members {
		c := fx.col
		if err := c.checkStorage(); err != nil {
			t.Errorf("%s: checkStorage: %v", name, err)
		}
		if c.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, c.Len())
		}
		if got := c.Cell(0); got != fx.cell {
			t.Errorf("%s: Cell(0) = %q, want %q", name, got, fx.cell)
		}
	}
}

// TestFormatDispatch drives every Format through ParseFormat, Encode,
// ContentType and Ext, the switches over Format in this package. A
// member with no arm is rejected by ParseFormat and Encode, and falls
// back to text's content type and extension, which the distinctness
// checks catch.
func TestFormatDispatch(t *testing.T) {
	members := map[string]Format{"FormatText": FormatText, "FormatJSON": FormatJSON, "FormatCSV": FormatCSV}
	if got, want := memberNames(members), declaredConsts(t, "Format"); !reflect.DeepEqual(got, want) {
		t.Fatalf("member table %v, declared %v: add a row for every Format", got, want)
	}
	if len(Formats()) != len(members) {
		t.Errorf("Formats() = %v, want %d members", Formats(), len(members))
	}
	types := make(map[string]Format)
	exts := make(map[string]Format)
	for _, f := range Formats() {
		if got, err := ParseFormat(string(f)); err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %q, %v", f, got, err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, f, sample()); err != nil || buf.Len() == 0 {
			t.Errorf("Encode(%s) wrote %d bytes, err %v", f, buf.Len(), err)
		}
		if prev, dup := types[f.ContentType()]; dup {
			t.Errorf("%s.ContentType() = %q, same as %s", f, f.ContentType(), prev)
		}
		types[f.ContentType()] = f
		if prev, dup := exts[f.Ext()]; dup {
			t.Errorf("%s.Ext() = %q, same as %s", f, f.Ext(), prev)
		}
		exts[f.Ext()] = f
	}
}
