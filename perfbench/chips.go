package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/montecarlo"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// chip-population: Monte-Carlo chip studies with no cycle simulation —
// typical and severe populations under the 3T1D backend and a severe
// population under STT-RAM. Retention maps do nearly all the work.

// popChips is the size of every population.
const popChips = 16

// refChips is how many leading chips of each population set-up
// evaluates alone on a one-worker pool as the gate's reference.
const refChips = 2

type population struct {
	name     string
	scenario variation.Scenario
	backend  circuit.CellBackend
	seed     uint64
	ref      []montecarlo.Chip
}

type chipPopulation struct {
	c    *config
	pool *sweep.Pool
	pops []population
	last []*montecarlo.Study
	dig  string
}

func setUpChips(c *config, t tracer) (instance, error) {
	sttram, ok := circuit.LookupBackend("sttram")
	if !ok {
		return nil, fmt.Errorf("chip-population: no sttram backend (have %v)", circuit.BackendNames())
	}
	s := &chipPopulation{c: c, pool: sweep.New(c.workers), pops: []population{
		{name: "typical-3t1d", scenario: variation.Typical, backend: circuit.Backend3T1D},
		{name: "severe-3t1d", scenario: variation.Severe, backend: circuit.Backend3T1D},
		{name: "severe-sttram", scenario: variation.Severe, backend: sttram},
	}}
	one := sweep.New(1)
	for i := range s.pops {
		p := &s.pops[i]
		p.seed = c.seed*uint64(len(s.pops)) + uint64(i)
		st := t.begin("montecarlo.New/" + p.name + "-ref")
		ref := montecarlo.New(p.options(refChips, one))
		st.end()
		p.ref = ref.Chips
	}
	return s, nil
}

func (p *population) options(chips int, pool *sweep.Pool) montecarlo.Options {
	return montecarlo.Options{
		Tech: circuit.Node32, Scenario: p.scenario, Seed: p.seed, Chips: chips, Backend: p.backend, Pool: pool,
	}
}

func (s *chipPopulation) pass(t tracer, lat *[]time.Duration) (int, error) {
	s.last = s.last[:0]
	for i := range s.pops {
		p := &s.pops[i]
		t0 := time.Now()
		st := t.begin("montecarlo.New/" + p.name)
		study := montecarlo.New(p.options(popChips, s.pool))
		st.end()
		*lat = append(*lat, time.Since(t0))
		s.last = append(s.last, study)
	}
	return s.check(), nil
}

// check is the chip-population gate. A population's leading chips must
// equal set-up's one-worker reference bit for bit (chip i does not
// depend on the population size or pool width), every retention must be
// a finite time of at least 0 (dead lines retain for 0 s), and every pass must reproduce the first
// pass's maps exactly. It returns the number of failed populations.
func (s *chipPopulation) check() int {
	failed := 0
	d := artifact.NewHasher()
	for i, st := range s.last {
		p := &s.pops[i]
		if err := sameChips(st.Chips[:refChips], p.ref); err != nil {
			fmt.Fprintf(os.Stderr, "chip-population gate: %s: %v\n", p.name, err)
			failed++
		}
		if err := finiteRetention(st.Chips); err != nil {
			fmt.Fprintf(os.Stderr, "chip-population gate: %s: %v\n", p.name, err)
			failed++
		}
		d.String(p.name, st.Backend)
		for j := range st.Chips {
			addRetention(d, &st.Chips[j])
		}
	}
	sum := d.Sum()
	if s.dig == "" {
		s.dig = sum
	} else if sum != s.dig {
		fmt.Fprintf(os.Stderr, "chip-population gate: pass digest %s differs from first pass %s\n", sum, s.dig)
		failed++
	}
	return failed
}

func sameChips(got, want []montecarlo.Chip) error {
	for i := range want {
		g, w := &got[i], &want[i]
		if g.CounterStep != w.CounterStep || len(g.RetentionSec) != len(w.RetentionSec) {
			return fmt.Errorf("chip %d: counter step or size differs from the one-worker reference", i)
		}
		for l := range w.RetentionSec {
			if math.Float64bits(g.RetentionSec[l]) != math.Float64bits(w.RetentionSec[l]) || g.Retention[l] != w.Retention[l] {
				return fmt.Errorf("chip %d line %d: retention differs from the one-worker reference", i, l)
			}
		}
	}
	return nil
}

func finiteRetention(chips []montecarlo.Chip) error {
	for i := range chips {
		for l, r := range chips[i].RetentionSec {
			if !(r >= 0) || math.IsInf(r, 0) {
				return fmt.Errorf("chip %d line %d: retention %g s", i, l, r)
			}
		}
	}
	return nil
}

func (s *chipPopulation) summary() map[string]any { return map[string]any{"digest": s.dig} }

// layerChips is how many chips the per-chip layer drives evaluate.
const layerChips = 4

// layers reports the studies' time from the traced pass, then splits a
// chip's evaluation into its layers by calling them directly on
// layerChips severe chips, in the order montecarlo.New calls them:
// sample the variation map, evaluate the retention map under each
// backend, quantize it to the line counters, and evaluate the 6T
// figures.
func (s *chipPopulation) layers(t tracer, m metricSet) error {
	spans := t.rec.snapshot()
	m.set("montecarlo.study_s", "s", totalDur(named(spans, t.run, "montecarlo.New")).Seconds())

	sev := &s.pops[1]
	perChip := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / layerChips }
	st := t.begin("variation.Population")
	t0 := time.Now()
	chips := variation.Population(sev.seed, layerChips, sev.scenario, circuit.L1D.TileCols, circuit.L1D.TileRows)
	m.set("variation.sample_ms_per_chip", "ms", perChip(time.Since(t0))/1e6)
	st.end()

	cycle := circuit.Node32.CycleSeconds()
	bits := core.DefaultConfig(core.NoRefreshLRU).CounterBits
	var quant time.Duration
	for _, p := range []*population{&s.pops[1], &s.pops[2]} {
		var ret time.Duration
		for _, ch := range chips {
			e := circuit.NewChipEval(circuit.Node32, circuit.L1D, ch)
			e.Backend = p.backend
			st := t.begin("circuit.ChipEval.RetentionMap/" + p.backend.Name())
			t0 := time.Now()
			sec := e.RetentionMap()
			ret += time.Since(t0)
			st.end()
			if p.backend.Name() == circuit.DefaultBackendName {
				st := t.begin("core.QuantizeRetention")
				t0 := time.Now()
				step := core.ChooseCounterStep(sec, cycle, bits)
				runtime.KeepAlive(core.QuantizeRetention(sec, cycle, step, bits))
				quant += time.Since(t0)
				st.end()
			}
		}
		m.set("circuit.retention_ms_per_chip."+p.backend.Name(), "ms", perChip(ret)/1e6)
	}
	m.set("core.quantize_us_per_chip", "us", perChip(quant)/1e3)

	var sram time.Duration
	for _, ch := range chips {
		e := circuit.NewChipEval(circuit.Node32, circuit.L1D, ch)
		st := t.begin("circuit.ChipEval.SRAM")
		t0 := time.Now()
		runtime.KeepAlive(e.SRAMFrequencyFactor(circuit.SRAM1X) + e.SRAMFrequencyFactor(circuit.SRAM2X) +
			e.SRAMLeakageFactor(circuit.SRAM1X) + e.CellLeakageFactor() + e.SRAMUnstableFraction(circuit.SRAM1X))
		sram += time.Since(t0)
		st.end()
	}
	m.set("circuit.sram_eval_ms_per_chip", "ms", perChip(sram)/1e6)
	return nil
}

func (s *chipPopulation) close() error { return nil }
