package main

import (
	"bytes"
	"strings"
	"testing"

	"tdcache"
	"tdcache/internal/artifact"
)

func TestApplyBackendUnknown(t *testing.T) {
	p := tdcache.QuickExperimentParams()
	err := applyBackend(p, "nonesuch")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The error must list the registered backends so the user can fix
	// the flag without reading source.
	for _, name := range tdcache.Backends() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered backend %q", err, name)
		}
	}
	if p.Backend != "" {
		t.Errorf("failed validation still set Backend = %q", p.Backend)
	}
}

func TestApplyBackendKnown(t *testing.T) {
	for _, name := range tdcache.Backends() {
		p := tdcache.QuickExperimentParams()
		if err := applyBackend(p, name); err != nil {
			t.Errorf("applyBackend(%q) = %v", name, err)
		}
		if p.Backend != name {
			t.Errorf("Backend = %q after applyBackend(%q)", p.Backend, name)
		}
	}
}

func TestApplyBackendEmptyKeepsDigest(t *testing.T) {
	p := tdcache.QuickExperimentParams()
	base := tdcache.ExperimentDigest(p)
	if err := applyBackend(p, ""); err != nil {
		t.Fatalf("empty backend: %v", err)
	}
	if got := tdcache.ExperimentDigest(p); got != base {
		t.Errorf("empty -backend changed the parameter digest %q -> %q", base, got)
	}
}

// TestFormatDispatch drives every artifact format through runAll's
// switch over Format. The store is pre-filled with a one-cell stub per
// experiment, so nothing is simulated. Only text output carries the
// classic `===== id =====` framing; a format with no arm falls through
// to it and fails.
func TestFormatDispatch(t *testing.T) {
	p := tdcache.QuickExperimentParams()
	store, err := tdcache.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := tdcache.ExperimentDigest(p)
	for _, sp := range tdcache.ExperimentSpecs() {
		stub := &artifact.Table{
			ID: sp.ID, Title: sp.Title, Kind: artifact.KindFigure,
			Columns: []artifact.Column{artifact.Strings("stub", []string{"x"})},
			Prov:    artifact.Provenance{SchemaVersion: artifact.SchemaVersion, ParamsDigest: digest, Tech: p.Tech.Name},
		}
		if _, err := store.Put(stub); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range artifact.Formats() {
		var buf bytes.Buffer
		if err := runAll(p, f, store, &buf); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		framed := strings.HasPrefix(buf.String(), "===== ")
		if framed != (f == artifact.FormatText) {
			t.Errorf("%s: text framing = %v, want %v: runAll has no arm for this format?", f, framed, f == artifact.FormatText)
		}
	}
}
