package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tdcache"
	"tdcache/internal/artifact"
)

// repro-quick: the reproduction's end-to-end unit of work
// (`tdcache-experiments -experiment all -quick`). Each pass builds all
// 18 experiments with fresh quick parameters — so no memoized study or
// baseline survives between passes — and encodes each as text.

// goldenDir holds the text outputs of every experiment at the quick
// parameters and default seed, relative to the repository root. The
// gate reads them from the checkout at run time, so regenerated goldens
// stay authoritative.
const goldenDir = "internal/experiments/testdata/golden"

type repro struct {
	c   *config
	ids []string
	// golden maps experiment ID to its expected text.
	golden map[string][]byte
	dig    string
}

// setUpRepro lists the experiments and loads their goldens. The goldens
// are compared only at their own seed, but every run loads them.
func setUpRepro(c *config, _ tracer) (instance, error) {
	r := &repro{c: c, ids: tdcache.Experiments()}
	g, err := readGoldens(filepath.Join(c.root, goldenDir), r.ids)
	if err != nil {
		return nil, err
	}
	r.golden = g
	return r, nil
}

func readGoldens(dir string, ids []string) (map[string][]byte, error) {
	g := make(map[string][]byte, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		g[id] = b
	}
	return g, nil
}

// params is a fresh quick configuration at the run's seed.
func (r *repro) params() *tdcache.ExperimentParams {
	p := tdcache.QuickExperimentParams()
	p.Seed = r.c.seed
	p.Parallel = r.c.workers
	return p
}

func (r *repro) pass(t tracer, lat *[]time.Duration) (int, error) {
	p := r.params()
	outs := make([][]byte, len(r.ids))
	arts := make([]tdcache.Artifact, len(r.ids))
	for i, id := range r.ids {
		t0 := time.Now()
		sb := t.begin("experiments.Build/" + id)
		a, err := tdcache.BuildExperiment(id, p)
		sb.end()
		if err != nil {
			return 0, fmt.Errorf("build %s: %w", id, err)
		}
		var buf bytes.Buffer
		se := t.begin("artifact.Encode/" + id)
		err = tdcache.EncodeArtifact(&buf, tdcache.FormatText, a)
		se.end()
		if err != nil {
			return 0, fmt.Errorf("encode %s: %w", id, err)
		}
		*lat = append(*lat, time.Since(t0))
		outs[i], arts[i] = buf.Bytes(), a
	}
	failed := r.check(outs, arts)
	d := artifact.NewHasher()
	for i, id := range r.ids {
		d.String(id, hashBytes(outs[i]))
	}
	if sum := d.Sum(); r.dig == "" {
		r.dig = sum
	} else if sum != r.dig {
		fmt.Fprintf(os.Stderr, "repro-quick gate: pass digest %s differs from first pass %s\n", sum, r.dig)
		failed++
	}
	return failed, nil
}

// check is the repro-quick gate: at the goldens' seed every text output
// must be byte-identical to its golden; at other seeds every artifact
// must pass schema validation. It returns the number of failures and
// reports each on standard error.
func (r *repro) check(outs [][]byte, arts []tdcache.Artifact) int {
	failed := 0
	atGoldenSeed := r.c.seed == tdcache.QuickExperimentParams().Seed
	for i, id := range r.ids {
		var err error
		if atGoldenSeed {
			err = goldenMismatch(id, outs[i], r.golden[id])
		} else {
			err = artifact.Validate(arts[i].ArtifactTable())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro-quick gate: %s: %v\n", id, err)
			failed++
		}
	}
	return failed
}

func goldenMismatch(id string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Errorf("text output differs from %s/%s.txt at byte %d", goldenDir, id, n)
}

func (r *repro) summary() map[string]any { return map[string]any{"digest": r.dig} }

// layers reports each experiment's build time and the total text
// encoding time of the traced pass.
func (r *repro) layers(t tracer, m metricSet) error {
	spans := t.rec.snapshot()
	for _, s := range named(spans, t.run, "experiments.Build") {
		m.set("experiments."+s.label()+".build_s", "s", s.dur().Seconds())
	}
	m.set("artifact.encode_ms", "ms", float64(totalDur(named(spans, t.run, "artifact.Encode")).Nanoseconds())/1e6)
	return nil
}

func (r *repro) close() error { return nil }
