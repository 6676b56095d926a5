package main

import (
	"fmt"
	"os"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/montecarlo"
	"tdcache/internal/power"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// scheme-sweep: a Fig. 9/10-shaped sweep composed from layer calls. The
// ideal-6T baseline and the eight refresh × placement schemes run on
// the good, median and bad chips of a severe-variation population, for
// all eight benchmarks. The population is sampled in set-up, so a pass
// is pure cycle-level simulation.

const (
	// sweepChips is the severe population the three chips are picked
	// from (the quick reproduction's size).
	sweepChips = 10
	// sweepInstr is the committed-instruction count of every job.
	sweepInstr = 20_000
)

var sweepTech = circuit.Node32

// sweepJob is one simulation: a scheme on a chip's retention map (chip
// -1 is the ideal 6T cache) running one benchmark's instruction stream.
type sweepJob struct {
	scheme core.Scheme
	chip   int
	bench  workload.Profile
	seed   uint64
}

// sweepOut is one job's simulated counters.
type sweepOut struct {
	m     cpu.Metrics
	cache core.Counters
	dyn   power.Breakdown
}

type schemeSweep struct {
	c     *config
	pool  *sweep.Pool
	chips [3]montecarlo.Chip // good, median, bad
	jobs  []sweepJob
	out   []sweepOut
	dig   string
	// slipJobs and shortJobs count the last pass's jobs outside the
	// gate that slipped or stopped short (see gated).
	slipJobs, shortJobs int
}

func setUpSweep(c *config, t tracer) (instance, error) {
	s := &schemeSweep{c: c, pool: sweep.New(c.workers)}
	st := t.begin("montecarlo.New/severe")
	study := montecarlo.New(montecarlo.Options{
		Tech: sweepTech, Scenario: variation.Severe, Seed: c.seed, Chips: sweepChips, Pool: s.pool,
	})
	st.end()
	g, m, b := study.GoodMedianBad()
	for i, ci := range []int{g, m, b} {
		s.chips[i] = study.Chips[ci]
	}
	for _, p := range workload.Profiles {
		s.jobs = append(s.jobs, sweepJob{scheme: core.NoRefreshLRU, chip: -1, bench: p})
	}
	for ci := range s.chips {
		for _, sc := range core.Fig9Schemes {
			for _, p := range workload.Profiles {
				s.jobs = append(s.jobs, sweepJob{scheme: sc, chip: ci, bench: p})
			}
		}
	}
	// Each job draws its own instruction stream from the run seed, so a
	// stream that overloads full refresh on mcf stops one job short, not
	// every full-refresh mcf job of the pass at once; that took a pass 40%
	// longer and moved wall_s across seeds.
	for i := range s.jobs {
		s.jobs[i].seed = c.seed*uint64(len(s.jobs)) + uint64(i)
	}
	s.out = make([]sweepOut, len(s.jobs))
	return s, nil
}

// cacheFor returns the L1 configuration and retention map of job j.
func (s *schemeSweep) cacheFor(j sweepJob) (core.Config, core.RetentionMap) {
	cfg := core.DefaultConfig(j.scheme)
	if j.chip < 0 {
		return cfg, core.IdealRetention(cfg.Lines())
	}
	ch := &s.chips[j.chip]
	cfg.CounterStep = int(ch.CounterStep)
	return cfg, ch.Retention
}

func (s *schemeSweep) pass(t tracer, lat *[]time.Duration) (int, error) {
	jobLat := make([]time.Duration, len(s.jobs))
	errs := make([]error, len(s.jobs))
	pt := t.begin("sweep.Pool.Run")
	s.pool.Run(len(s.jobs), func(job int, w *sweep.Worker) {
		t0 := time.Now()
		jt := pt.begin(fmt.Sprintf("sweep.job/w%d", w.ID))
		s.out[job], errs[job] = s.simulate(jt, s.jobs[job])
		jt.end()
		jobLat[job] = time.Since(t0)
	})
	pt.end()
	*lat = append(*lat, jobLat...)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return s.check(), nil
}

// simulate runs one job through fresh layer objects:
// core.New → workload.NewGenerator → cpu.NewSystem → Run → power.Dynamic.
func (s *schemeSweep) simulate(t tracer, j sweepJob) (sweepOut, error) {
	cfg, ret := s.cacheFor(j)
	st := t.begin("core.New")
	cache, err := core.New(cfg, ret)
	st.end()
	if err != nil {
		return sweepOut{}, fmt.Errorf("scheme-sweep: %v: %w", j.scheme, err)
	}
	st = t.begin("workload.NewGenerator")
	gen := workload.NewGenerator(j.bench, j.seed)
	st.end()
	st = t.begin("cpu.NewSystem")
	l2 := cpu.NewL2(cpu.DefaultL2())
	sys := cpu.NewSystem(cpu.DefaultConfig(), cache, l2, gen)
	st.end()
	st = t.begin("cpu.System.Run/" + j.bench.Name)
	m := sys.Run(sweepInstr)
	st.end()
	l2acc := l2.Accesses + l2.Writes + cache.C.Writebacks + cache.C.WriteThroughs
	st = t.begin("power.Dynamic")
	dyn := power.Dynamic(sweepTech, &cache.C, l2acc, m.Cycles, j.scheme)
	st.end()
	return sweepOut{m: m, cache: cache.C, dyn: dyn}, nil
}

// gated reports whether job j is held to a complete, slip-free run.
// internal/core counts a slip when a line-level scheme services a line
// after its true expiry, which its conservative counters must prevent;
// its own tests hold no-refresh, partial-refresh and RSP schemes to that
// on live maps. Exempt are full refresh on every chip, whose single
// refresh port falls behind on mcf under refresh overload (seen on
// chips with and without dead lines), and LRU placement on a chip with
// dead lines, which fills dead lines and slips on every seed tried (the
// pathology of §4.3.2). An exempt job can fall below
// cpu.System.Run's 0.02-IPC safety bound, which stops it short of its
// instructions.
func (s *schemeSweep) gated(j sweepJob) bool {
	if j.chip < 0 {
		return true
	}
	if j.scheme.Refresh == core.RefreshFull {
		return false
	}
	return s.chips[j.chip].DeadFrac == 0 || j.scheme.Placement != core.PlaceLRU
}

// check is the scheme-sweep gate: every gated job must commit all
// its instructions with no integrity slips (core.integrity_slips == 0),
// and every pass must reproduce the first pass's counters and retention
// maps exactly. It returns the number of failed jobs. Slips and short
// runs of the other jobs are counted in summary and the digest.
func (s *schemeSweep) check() int {
	failed := 0
	s.slipJobs, s.shortJobs = 0, 0
	d := artifact.NewHasher()
	for i, o := range s.out {
		j := s.jobs[i]
		short, slipped := o.m.Instructions < sweepInstr, o.cache.IntegritySlips != 0
		if !s.gated(j) {
			if short {
				s.shortJobs++
			}
			if slipped {
				s.slipJobs++
			}
		} else if short || slipped {
			fmt.Fprintf(os.Stderr, "scheme-sweep gate: %v chip %d %s: %d integrity slips, %d of %d instructions\n",
				j.scheme, j.chip, j.bench.Name, o.cache.IntegritySlips, o.m.Instructions, sweepInstr)
			failed++
		}
		d.String(fmt.Sprintf("%v %d %s", j.scheme, j.chip, j.bench.Name), fmt.Sprintf("%+v %+v %x", o.m, o.cache, o.dyn.TotalW()))
	}
	for _, ch := range s.chips {
		addRetention(d, &ch)
	}
	sum := d.Sum()
	if s.dig == "" {
		s.dig = sum
	} else if sum != s.dig {
		fmt.Fprintf(os.Stderr, "scheme-sweep gate: pass digest %s differs from first pass %s\n", sum, s.dig)
		failed++
	}
	return failed
}

// addRetention folds a chip's exact and quantized retention maps into d.
func addRetention(d *artifact.Hasher, ch *montecarlo.Chip) {
	d.Int("chip", int64(ch.Index))
	d.Int("step", ch.CounterStep)
	for i, r := range ch.RetentionSec {
		d.Float("sec", r)
		d.Int("cycles", ch.Retention[i])
	}
}

func (s *schemeSweep) summary() map[string]any {
	var cycles uint64
	for _, o := range s.out {
		cycles += o.m.Cycles
	}
	return map[string]any{
		"digest": s.dig, "sim_cycles": cycles,
		"ungated_slip_jobs": s.slipJobs, "ungated_short_jobs": s.shortJobs,
	}
}

// layers derives the simulator's per-layer metrics from the traced
// pass, then drives the workload generator and the L1 controller alone
// on the same inputs.
func (s *schemeSweep) layers(t tracer, m metricSet) error {
	spans := t.rec.snapshot()
	var sum cpu.Metrics
	var cc core.Counters
	for _, o := range s.out {
		sum.Cycles += o.m.Cycles
		sum.Instructions += o.m.Instructions
		sum.Replays += o.m.Replays
		sum.LoadPortRetries += o.m.LoadPortRetries
		sum.ROBFullCycles += o.m.ROBFullCycles
		sum.IQFullCycles += o.m.IQFullCycles
		sum.FetchBlockedCycles += o.m.FetchBlockedCycles
		cc.Loads += o.cache.Loads
		cc.Stores += o.cache.Stores
		cc.LoadMisses += o.cache.LoadMisses
		cc.StoreMisses += o.cache.StoreMisses
		cc.RefreshBlocked += o.cache.RefreshBlocked
		cc.LineRefreshes += o.cache.LineRefreshes
		cc.WayMoves += o.cache.WayMoves
		cc.IntegritySlips += o.cache.IntegritySlips
	}
	runNS := float64(totalDur(named(spans, t.run, "cpu.System.Run")).Nanoseconds())
	m.set("cpu.ns_per_cycle", "ns", runNS/float64(sum.Cycles))
	m.set("cpu.ns_per_instr", "ns", runNS/float64(sum.Instructions))
	m.set("cpu.cycles", "count", float64(sum.Cycles))
	m.set("cpu.ipc", "instr/cycle", float64(sum.Instructions)/float64(sum.Cycles))
	m.set("cpu.replays", "count", float64(sum.Replays))
	m.set("cpu.load_port_retries", "count", float64(sum.LoadPortRetries))
	m.set("cpu.rob_full_cycles", "count", float64(sum.ROBFullCycles))
	m.set("cpu.iq_full_cycles", "count", float64(sum.IQFullCycles))
	m.set("cpu.fetch_blocked_cycles", "count", float64(sum.FetchBlockedCycles))
	m.set("core.accesses", "count", float64(cc.Accesses()))
	m.set("core.miss_ratio", "ratio", float64(cc.Misses())/float64(cc.Accesses()))
	m.set("core.refresh_blocked", "count", float64(cc.RefreshBlocked))
	m.set("core.line_refreshes", "count", float64(cc.LineRefreshes))
	m.set("core.way_moves", "count", float64(cc.WayMoves))
	m.set("core.integrity_slips", "count", float64(cc.IntegritySlips))

	runs := named(spans, t.run, "sweep.Pool.Run")
	jobs := named(spans, t.run, "sweep.job")
	if len(runs) == 0 || len(jobs) == 0 {
		return fmt.Errorf("scheme-sweep: traced pass recorded no pool spans")
	}
	run := runs[len(runs)-1]
	var busy time.Duration
	lastEnd := map[string]int64{}
	for _, j := range jobs {
		if j.Parent == run.ID {
			busy += j.dur()
			lastEnd[j.label()] = max(lastEnd[j.label()], j.End)
		}
	}
	firstIdle := run.End
	for _, e := range lastEnd {
		firstIdle = min(firstIdle, e)
	}
	m.set("sweep.jobs", "count", float64(len(s.jobs)))
	m.set("sweep.busy_frac", "ratio", busy.Seconds()/(float64(s.pool.Workers())*run.dur().Seconds()))
	m.set("sweep.tail_ms", "ms", float64(run.End-firstIdle)/1e6)

	m.set("workload.ns_per_instr", "ns", s.driveGenerator(t))
	nsAccess, err := s.replayCache(t)
	if err != nil {
		return err
	}
	m.set("core.ns_per_access", "ns", nsAccess)
	return nil
}

// generatorReps repeats the generator drive so it lasts long enough to
// time.
const generatorReps = 5

// idealJobs are the ideal-6T jobs, one per benchmark in
// workload.Profiles order.
func (s *schemeSweep) idealJobs() []sweepJob { return s.jobs[:len(workload.Profiles)] }

// driveGenerator times Generator.Next alone on the ideal jobs' (profile,
// seed, count) and returns nanoseconds per instruction.
func (s *schemeSweep) driveGenerator(t tracer) float64 {
	var total time.Duration
	for _, j := range s.idealJobs() {
		st := t.begin("workload.Generator.Next/" + j.bench.Name)
		t0 := time.Now()
		for r := 0; r < generatorReps; r++ {
			g := workload.NewGenerator(j.bench, j.seed)
			for i := 0; i < sweepInstr; i++ {
				g.Next()
			}
		}
		total += time.Since(t0)
		st.end()
	}
	return float64(total.Nanoseconds()) / float64(len(workload.Profiles)*generatorReps*sweepInstr)
}

// memOp is one load or store of a benchmark's instruction stream.
type memOp struct {
	addr uint64
	kind core.AccessKind
}

// replayCache replays the ideal jobs' loads and stores through the L1
// alone (Tick, Access, and Fill on a miss; one access per cycle) under
// each scheme on the median chip, and returns nanoseconds per access.
func (s *schemeSweep) replayCache(t tracer) (float64, error) {
	var traces [][]memOp
	for _, ij := range s.idealJobs() {
		g := workload.NewGenerator(ij.bench, ij.seed)
		var tr []memOp
		for i := 0; i < sweepInstr; i++ {
			in := g.Next()
			switch in.Kind {
			case workload.KLoad:
				tr = append(tr, memOp{in.Addr, core.Load})
			case workload.KStore:
				tr = append(tr, memOp{in.Addr, core.Store})
			}
		}
		traces = append(traces, tr)
	}
	jobs := []sweepJob{{scheme: core.NoRefreshLRU, chip: -1}}
	for _, sc := range core.Fig9Schemes {
		jobs = append(jobs, sweepJob{scheme: sc, chip: 1})
	}
	var total time.Duration
	accesses := 0
	for _, j := range jobs {
		cfg, ret := s.cacheFor(j)
		st := t.begin("core.Cache.Access/" + j.scheme.String())
		t0 := time.Now()
		for _, tr := range traces {
			c, err := core.New(cfg, ret)
			if err != nil {
				st.end()
				return 0, fmt.Errorf("replay: %w", err)
			}
			replay(c, tr)
			accesses += len(tr)
		}
		total += time.Since(t0)
		st.end()
	}
	return float64(total.Nanoseconds()) / float64(accesses), nil
}

// replay drives c one cycle at a time: each op is retried until a port
// accepts it, and a miss is filled (retried until a write port frees)
// before the next op.
func replay(c *core.Cache, ops []memOp) {
	now := int64(0)
	for _, op := range ops {
		for {
			c.Tick(now)
			now++
			r := c.Access(op.addr, op.kind)
			if r.PortStall {
				continue
			}
			if !r.Hit && !r.Bypass {
				for c.Fill(op.addr, op.kind == core.Store).Stall {
					c.Tick(now)
					now++
				}
			}
			break
		}
	}
}

func (s *schemeSweep) close() error { return nil }
