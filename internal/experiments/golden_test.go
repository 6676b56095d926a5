package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
)

// quickArtifacts memoizes one sp.Run(sharedQuick) per spec ID for the
// test binary, so the golden and schema tests below check the same
// built artifact instead of each building all 18 experiments. Tests in
// this package do not run in parallel, so a plain map suffices.
var quickArtifacts = map[string]artifact.Artifact{}

// quickArtifact returns sp's artifact at sharedQuick, building it on
// first use.
func quickArtifact(sp Spec) artifact.Artifact {
	a, ok := quickArtifacts[sp.ID]
	if !ok {
		a = sp.Run(sharedQuick)
		quickArtifacts[sp.ID] = a
	}
	return a
}

// TestGoldenTextOutput asserts that the text encoding of every
// registered experiment is byte-identical to the golden files captured
// from the pre-artifact-pipeline Print methods at quick configuration.
// This is the refactor's central invariant: moving the registry onto
// typed artifacts must not change a single output byte.
func TestGoldenTextOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, sp := range Specs {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", sp.ID+".txt"))
			if err != nil {
				t.Fatalf("golden file: %v", err)
			}
			var buf bytes.Buffer
			if err := artifact.EncodeText(&buf, quickArtifact(sp)); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("text output diverged from pre-refactor golden\n--- golden ---\n%s\n--- got ---\n%s", golden, buf.Bytes())
			}
		})
	}
}

// TestArtifactTablesValidate checks that every experiment's structured
// artifact passes schema validation with full provenance. It reuses the
// artifacts TestGoldenTextOutput built.
func TestArtifactTablesValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	digest := Digest(sharedQuick)
	for _, sp := range Specs {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			a := quickArtifact(sp)
			if got := a.ArtifactID(); got != sp.ID {
				t.Fatalf("ArtifactID = %q, want %q", got, sp.ID)
			}
			tb := a.ArtifactTable()
			if err := artifact.Validate(tb); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if tb.Title != sp.Title || tb.Kind != sp.Kind {
				t.Errorf("table metadata %q/%q diverges from spec %q/%q", tb.Title, tb.Kind, sp.Title, sp.Kind)
			}
			if tb.Prov.ParamsDigest != digest {
				t.Errorf("params digest = %q, want %q", tb.Prov.ParamsDigest, digest)
			}
			if tb.Prov.Seed != sharedQuick.Seed {
				t.Errorf("provenance seed = %d, want %d", tb.Prov.Seed, sharedQuick.Seed)
			}
		})
	}
}

// TestArtifactJSONRoundTrip asserts Encode→Decode→Encode stability for
// a real experiment artifact: the canonical JSON bytes (and therefore
// the artifact digest) must survive a round trip.
func TestArtifactJSONRoundTrip(t *testing.T) {
	a := Fig4(sharedQuick)
	var first bytes.Buffer
	if err := artifact.EncodeJSON(&first, a); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := artifact.DecodeJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var second bytes.Buffer
	if err := artifact.EncodeJSON(&second, decoded); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("JSON round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	d1, err := a.ArtifactTable().Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	d2, err := decoded.Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	if d1 != d2 {
		t.Errorf("digest changed across round trip: %s vs %s", d1, d2)
	}
}

// TestParamsDigest pins the digest contract: deterministic for equal
// Params, sensitive to every semantic field, and insensitive to
// Parallel (the engine guarantees byte-identical output regardless of
// worker count, so Parallel must not fragment the store).
func TestParamsDigest(t *testing.T) {
	base := QuickParams()
	if Digest(base) != Digest(QuickParams()) {
		t.Fatal("digest not deterministic for identical Params")
	}

	mutations := map[string]func(*Params){
		"Seed":         func(p *Params) { p.Seed++ },
		"Chips":        func(p *Params) { p.Chips++ },
		"DistChips":    func(p *Params) { p.DistChips++ },
		"Instructions": func(p *Params) { p.Instructions++ },
		"Benchmarks":   func(p *Params) { p.Benchmarks = p.Benchmarks[:len(p.Benchmarks)-1] },
		"Tech":         func(p *Params) { p.Tech.FreqGHz *= 2 },
		"Backend":      func(p *Params) { p.Backend = circuit.STTRAMBackend.Name() },
	}
	for name, mutate := range mutations {
		p := QuickParams()
		mutate(p)
		if Digest(p) == Digest(base) {
			t.Errorf("digest insensitive to %s", name)
		}
	}

	p := QuickParams()
	p.Parallel = 7
	if Digest(p) != Digest(base) {
		t.Error("digest must ignore Parallel: output is byte-identical across worker counts")
	}

	// The reference backend is the digest's zero value: naming it
	// explicitly must not produce a second store key for the same bytes,
	// and every pre-refactor digest (Backend == "") must stay valid.
	p = QuickParams()
	p.Backend = circuit.DefaultBackendName
	if Digest(p) != Digest(base) {
		t.Error(`digest must treat Backend "" and "3t1d" identically: pre-refactor store keys must stay valid`)
	}

	// hashTech lists Tech's fields explicitly; walk the struct with
	// reflection and perturb each field so a field added to circuit.Tech
	// but missing from hashTech cannot silently drop out of the key.
	tt := reflect.TypeOf(circuit.Tech{})
	for i := 0; i < tt.NumField(); i++ {
		p := QuickParams()
		f := reflect.ValueOf(&p.Tech).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "?")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		default:
			t.Fatalf("Tech.%s has kind %s — extend hashTech and this test", tt.Field(i).Name, f.Kind())
		}
		if Digest(p) == Digest(base) {
			t.Errorf("digest insensitive to Tech.%s — add it to hashTech", tt.Field(i).Name)
		}
	}
}
