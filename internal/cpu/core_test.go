package cpu

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

func idealSystem(t *testing.T, bench string, seed uint64) *System {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	cache, err := core.New(core.DefaultConfig(core.NoRefreshLRU), core.IdealRetention(1024))
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(DefaultConfig(), cache, NewL2(DefaultL2()), workload.NewGenerator(p, seed))
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.IssueWidth != 4 {
		t.Errorf("issue width = %d", cfg.IssueWidth)
	}
	if cfg.ROBSize != 80 {
		t.Errorf("ROB = %d", cfg.ROBSize)
	}
	if cfg.IntIQ != 20 || cfg.FpIQ != 15 {
		t.Errorf("IQs = %d/%d", cfg.IntIQ, cfg.FpIQ)
	}
	if cfg.LoadQ != 32 || cfg.StoreQ != 32 {
		t.Errorf("LQ/SQ = %d/%d", cfg.LoadQ, cfg.StoreQ)
	}
	if cfg.IntFUs != 4 || cfg.FpFUs != 2 {
		t.Errorf("FUs = %d/%d", cfg.IntFUs, cfg.FpFUs)
	}
}

func TestRunProducesForwardProgress(t *testing.T) {
	s := idealSystem(t, "gzip", 1)
	m := s.Run(50000)
	if m.Instructions < 50000 {
		t.Fatalf("committed %d instructions, want >= 50000", m.Instructions)
	}
	if m.IPC <= 0.05 || m.IPC > 4 {
		t.Fatalf("IPC = %v, implausible", m.IPC)
	}
	if m.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := idealSystem(t, "gcc", 9)
	b := idealSystem(t, "gcc", 9)
	ma := a.Run(30000)
	mb := b.Run(30000)
	if ma.Cycles != mb.Cycles || ma.Instructions != mb.Instructions {
		t.Fatalf("non-deterministic: %+v vs %+v", ma, mb)
	}
	if a.Cache.C != b.Cache.C {
		t.Fatal("cache counters diverged between identical runs")
	}
}

func TestRunIsResumable(t *testing.T) {
	a := idealSystem(t, "mesa", 3)
	a.Run(20000)
	m := a.Run(20000)
	if m.Instructions < 40000 {
		t.Errorf("resumed run committed %d, want >= 40000", m.Instructions)
	}
}

func TestBenchmarksOrderedByMemoryIntensity(t *testing.T) {
	// mcf (pointer-chaser) must have by far the lowest IPC; gzip and
	// crafty (cache-friendly) the highest. This is the miss-rate spread
	// the retention experiments rely on.
	ipc := map[string]float64{}
	for _, b := range []string{"gzip", "mcf", "crafty"} {
		s := idealSystem(t, b, 5)
		ipc[b] = s.Run(60000).IPC
	}
	if !(ipc["mcf"] < ipc["gzip"] && ipc["mcf"] < ipc["crafty"]) {
		t.Errorf("mcf IPC %v should be the lowest: %v", ipc["mcf"], ipc)
	}
	if ipc["gzip"] < 3*ipc["mcf"] {
		t.Errorf("gzip (%v) should dwarf mcf (%v)", ipc["gzip"], ipc["mcf"])
	}
}

func TestBranchPredictorEngagedDuringRun(t *testing.T) {
	s := idealSystem(t, "crafty", 7)
	m := s.Run(60000)
	if m.BranchAccuracy < 0.7 {
		t.Errorf("branch accuracy = %.3f, want >= 0.7", m.BranchAccuracy)
	}
	if s.Pred.Lookups == 0 {
		t.Error("predictor never consulted")
	}
}

func TestL1MissesReachL2(t *testing.T) {
	s := idealSystem(t, "mcf", 11)
	m := s.Run(40000)
	if m.L2Reads == 0 {
		t.Fatal("mcf produced no L2 traffic")
	}
	if s.Cache.C.MissRate() < 0.1 {
		t.Errorf("mcf L1 miss rate = %.3f, want >= 0.1", s.Cache.C.MissRate())
	}
}

func TestWritebacksFlowToL2(t *testing.T) {
	s := idealSystem(t, "fma3d", 13)
	s.Run(80000)
	if s.Cache.C.Writebacks == 0 {
		t.Error("no dirty writebacks from a write-heavy benchmark")
	}
}

func TestRefreshPortTheftCostsPerformance(t *testing.T) {
	// Same benchmark and retention, with and without an aggressively
	// refreshing cache: full refresh of short-retention lines must cost
	// IPC relative to ideal.
	p, _ := workload.ByName("gzip")
	mk := func(s core.Scheme, ret core.RetentionMap) *System {
		c, err := core.New(core.DefaultConfig(s), ret)
		if err != nil {
			t.Fatal(err)
		}
		return NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 17))
	}
	ideal := mk(core.NoRefreshLRU, core.IdealRetention(1024))
	busy := mk(core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceLRU},
		core.UniformRetention(1024, 2048))
	mi := ideal.Run(60000)
	mb := busy.Run(60000)
	// The refresh engine harvests idle port cycles (§4.1's bandwidth
	// argument), so at gzip's modest cache utilization the cost is tiny —
	// but it must never come out ahead of the ideal cache.
	if mb.IPC > mi.IPC*1.005 {
		t.Errorf("constant refresh (IPC %.3f) should not beat ideal (%.3f)", mb.IPC, mi.IPC)
	}
	if busy.Cache.C.LineRefreshes == 0 {
		t.Error("full-refresh cache never refreshed")
	}
}

func TestDeadLinesCauseReplays(t *testing.T) {
	// A cache whose lines all have tiny retention under plain LRU must
	// produce expired hits (replays) and hurt IPC.
	p, _ := workload.ByName("gzip")
	ret := core.UniformRetention(1024, 1024) // 1K-cycle lines, no refresh
	c, err := core.New(core.DefaultConfig(core.NoRefreshLRU), ret)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 19))
	m := s.Run(60000)
	ideal := idealSystem(t, "gzip", 19)
	mi := ideal.Run(60000)
	if m.IPC >= mi.IPC {
		t.Errorf("expiring cache IPC %.3f should trail ideal %.3f", m.IPC, mi.IPC)
	}
	if c.C.ExpiredHits == 0 && c.C.ExpiryInvalidates == 0 {
		t.Error("no expiry activity on a 1K-retention cache")
	}
}

func TestDSPBypassWorksEndToEnd(t *testing.T) {
	// All-dead cache under DSP: every access bypasses to L2; the system
	// still makes forward progress.
	p, _ := workload.ByName("gzip")
	ret := core.UniformRetention(1024, 0)
	c, err := core.New(core.DefaultConfig(core.Scheme{Refresh: core.RefreshNone, Placement: core.PlaceDSP}), ret)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 23))
	m := s.Run(30000)
	if m.Instructions < 30000 {
		t.Fatal("no forward progress on all-dead DSP cache")
	}
	if c.C.BypassedAccesses == 0 {
		t.Error("no bypasses recorded")
	}
	// Every load pays the L2 latency instead of 3-cycle hits; the
	// out-of-order window hides much of it, so only require that the
	// bypassing system does not somehow beat the ideal one.
	ideal := idealSystem(t, "gzip", 23)
	mi := ideal.Run(30000)
	if m.IPC > mi.IPC*1.02 {
		t.Errorf("all-dead cache IPC %.3f should not beat ideal %.3f", m.IPC, mi.IPC)
	}
}

func TestGlobalRefreshSmallPenalty(t *testing.T) {
	// §4.1: with nominal (~6000 ns ≈ 25.8K cycles) retention, the global
	// scheme costs less than ~2% performance versus ideal.
	p, _ := workload.ByName("gzip")
	ret := core.UniformRetention(1024, 25800)
	c, err := core.New(core.DefaultConfig(core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU}), ret)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 29))
	m := s.Run(100000)
	ideal := idealSystem(t, "gzip", 29)
	mi := ideal.Run(100000)
	loss := 1 - m.IPC/mi.IPC
	if loss > 0.03 {
		t.Errorf("global-refresh loss = %.3f, want < 0.03 (§4.1: <1%%)", loss)
	}
	if c.C.GlobalPasses == 0 {
		t.Error("global refresh never ran")
	}
}

func TestICacheEngaged(t *testing.T) {
	s := idealSystem(t, "gcc", 31)
	m := s.Run(60000)
	if m.ICacheMisses == 0 {
		t.Fatal("gcc (512KB code) produced no I-cache misses")
	}
	rate := float64(m.ICacheMisses) / float64(m.Instructions)
	if rate > 0.08 {
		t.Errorf("I-cache miss rate = %.4f, implausibly high", rate)
	}
}

func TestICacheDisabled(t *testing.T) {
	p, _ := workload.ByName("gcc")
	cache, err := core.New(core.DefaultConfig(core.NoRefreshLRU), core.IdealRetention(1024))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ModelICache = false
	s := NewSystem(cfg, cache, NewL2(DefaultL2()), workload.NewGenerator(p, 31))
	m := s.Run(40000)
	if m.ICacheMisses != 0 {
		t.Errorf("disabled I-cache recorded %d misses", m.ICacheMisses)
	}
	// Ideal fetch must not be slower than the modelled one.
	withIC := idealSystem(t, "gcc", 31)
	mi := withIC.Run(40000)
	if m.IPC < mi.IPC*0.98 {
		t.Errorf("ideal-fetch IPC %.3f should be at least the modelled one %.3f", m.IPC, mi.IPC)
	}
}

func TestICacheCodeFootprintOrdering(t *testing.T) {
	// Bigger code footprints must miss more: gcc (512KB) vs gzip (32KB).
	rate := func(bench string) float64 {
		s := idealSystem(t, bench, 37)
		m := s.Run(60000)
		return float64(m.ICacheMisses) / float64(m.Instructions)
	}
	if g, z := rate("gcc"), rate("gzip"); g < 2*z {
		t.Errorf("gcc icache miss rate (%.4f) should dwarf gzip (%.4f)", g, z)
	}
}

func TestSystemResetMatchesFresh(t *testing.T) {
	// A fully recycled harness (cache + L2 + generator + system) must
	// reproduce a fresh harness's metrics exactly; the sweep engine's
	// per-worker reuse depends on it.
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	ccfg := core.DefaultConfig(core.PartialRefreshDSP)
	ret := core.UniformRetention(ccfg.Lines(), 6000)
	for i := range ret {
		switch i % 7 {
		case 0:
			ret[i] = 0 // dead lines: DSP bypass and replay paths
		case 3:
			ret[i] = 2500 // short lines: refresh scheduling
		}
	}

	c1, err := core.New(ccfg, ret)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSystem(DefaultConfig(), c1, NewL2(DefaultL2()), workload.NewGenerator(p, 11))
	m1 := s1.Run(40000)

	// Dirty a second harness with a different benchmark and scheme, then
	// recycle every component in place.
	gcc, _ := workload.ByName("gcc")
	dirtyCfg := core.DefaultConfig(core.NoRefreshLRU)
	c2, err := core.New(dirtyCfg, core.IdealRetention(dirtyCfg.Lines()))
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewL2(DefaultL2())
	gen := workload.NewGenerator(gcc, 3)
	s2 := NewSystem(DefaultConfig(), c2, l2, gen)
	s2.Run(25000)

	if err := c2.Reset(ccfg, ret); err != nil {
		t.Fatal(err)
	}
	l2.Reset()
	gen.Reset(p, 11)
	s2.Reset(c2, l2, gen)
	m2 := s2.Run(40000)

	if m1 != m2 {
		t.Fatalf("metrics diverged:\nfresh:    %+v\nrecycled: %+v", m1, m2)
	}
	if c1.C != c2.C {
		t.Fatalf("cache counters diverged:\nfresh:    %+v\nrecycled: %+v", c1.C, c2.C)
	}
}

// stepReference is Step with issue replaced by issueReference. It
// reports whether the select filled the issue width before reaching a
// fetch-blocking branch.
func (s *System) stepReference() (widthCut bool) {
	s.Cache.Tick(s.now)
	s.completeMisses()
	s.drainStoreBuffer()
	s.commit()
	widthCut = s.issueReference()
	s.dispatch()
	s.now++
	return widthCut
}

// issueReference is the issue stage as a full in-order ROB scan: every
// cycle it walks the ROB oldest first, resolving the fetch-blocking
// branch when it reaches it and issuing waiting instructions until the
// width runs out. issue must decide exactly what this decides. Afterwards
// it rebuilds the waiting list from the ROB so dispatch can keep
// appending to it. It reports whether the scan stopped short of the
// fetch-blocking branch.
func (s *System) issueReference() (widthCut bool) {
	intFU := s.Cfg.IntFUs
	fpFU := s.Cfg.FpFUs
	issued := 0
	reached := s.fetchBlockedBy == 0
	for i := 0; i < s.robLen && issued < s.Cfg.IssueWidth; i++ {
		e := s.robAt(i)
		if e.seq == s.fetchBlockedBy {
			reached = true
		}
		// Resolve the blocking branch as soon as it completes.
		if e.seq == s.fetchBlockedBy && e.state == sIssued && e.doneAt <= s.now {
			s.fetchBlockedBy = 0
			s.fetchResumeAt = e.doneAt + int64(s.Cfg.MispredictPenalty)
		}
		if e.state != sWaiting {
			continue
		}
		if !s.depsReady(e) {
			continue
		}
		switch e.kind {
		case workload.KInt, workload.KIntLong, workload.KBranch:
			if intFU == 0 {
				continue
			}
			intFU--
			lat := int64(1)
			if e.kind == workload.KIntLong {
				lat = int64(s.Cfg.IntLongLat)
			}
			s.setDone(e, s.now+lat)
			s.intIQ--
			issued++
		case workload.KFp, workload.KFpLong:
			if fpFU == 0 {
				continue
			}
			fpFU--
			lat := int64(s.Cfg.FpLat)
			if e.kind == workload.KFpLong {
				lat = int64(s.Cfg.FpLongLat)
			}
			s.setDone(e, s.now+lat)
			s.fpIQ--
			issued++
		case workload.KStore:
			s.setDone(e, s.now+1)
			s.intIQ--
			issued++
		case workload.KLoad:
			r := s.Cache.Access(e.addr, core.Load)
			switch {
			case r.PortStall:
				s.M.LoadPortRetries++
				continue
			case r.Hit:
				s.setDone(e, s.now+int64(r.Latency))
			case r.Bypass:
				lat := s.L2.Access(e.addr)
				s.setDone(e, s.now+int64(lat))
			default:
				slot := s.allocMSHR(lineOf(e.addr), false)
				if slot == -1 {
					continue
				}
				if len(s.mshrs[slot].loads) == cap(s.mshrs[slot].loads) {
					continue
				}
				e.state = sWaitMem
				e.doneAt = math.MaxInt64
				s.doneRing[e.seq%doneRingSize] = math.MaxInt64
				robSlot := (s.robHead + i) & s.robMask
				s.mshrs[slot].loads = append(s.mshrs[slot].loads, robSlot)
				if r.Expired {
					s.M.Replays++
					s.mshrs[slot].readyAt += int64(s.Cfg.ReplayPenalty)
					if at := s.now + int64(s.Cfg.ReplayPenalty); at > s.fetchResumeAt {
						s.fetchResumeAt = at
					}
				}
			}
			s.intIQ--
			issued++
		}
	}
	s.waiting = s.waiting[:0]
	for i := 0; i < s.robLen; i++ {
		if slot := (s.robHead + i) & s.robMask; s.rob[slot].state == sWaiting {
			s.waiting = append(s.waiting, slot)
		}
	}
	return !reached
}

// issueSetups are stepSetups plus plain LRU without refresh on the same
// dead and short lines: the one scheme that keeps hitting lapsed lines,
// so loads replay.
var issueSetups = append(stepSetups[:len(stepSetups):len(stepSetups)],
	stepSetup{"no-refresh-LRU", core.NoRefreshLRU, false})

// TestIssueMatchesReferenceScan runs the waiting-list issue stage and the
// full-ROB reference scan in lockstep, cycle by cycle, and requires the
// two systems to agree on every metric, cache and L2 counter, and
// pipeline register after every cycle. The setups make replays, DSP
// bypasses, load-port stalls and width-limited branch resolution occur.
func TestIssueMatchesReferenceScan(t *testing.T) {
	cycles := 60_000
	if testing.Short() {
		cycles = 15_000
	}
	var replays, retries, bypasses, cuts uint64
	for _, tc := range issueSetups {
		for _, bench := range []string{"mcf", "gzip", "applu", "fma3d"} {
			a := newStepSystem(t, bench, tc.scheme, tc.ideal, 7)
			b := newStepSystem(t, bench, tc.scheme, tc.ideal, 7)
			for c := 0; c < cycles; c++ {
				a.Step()
				if b.stepReference() {
					cuts++
				}
				if err := sameIssueState(a, b); err != "" {
					t.Fatalf("%s/%s: cycle %d: %s", tc.name, bench, c, err)
				}
			}
			replays += a.M.Replays
			retries += a.M.LoadPortRetries
			bypasses += a.Cache.C.BypassedAccesses
		}
	}
	if replays == 0 || retries == 0 || bypasses == 0 || cuts == 0 {
		t.Errorf("paths not exercised: replays %d, port retries %d, bypasses %d, width-cut branch checks %d",
			replays, retries, bypasses, cuts)
	}
}

// sameIssueState describes the first difference between the two
// systems' observable state, or returns "".
func sameIssueState(a, b *System) string {
	switch {
	case a.M != b.M:
		return fmt.Sprintf("metrics %+v vs reference %+v", a.M, b.M)
	case a.Cache.C != b.Cache.C:
		return fmt.Sprintf("cache counters %+v vs reference %+v", a.Cache.C, b.Cache.C)
	case a.L2.Accesses != b.L2.Accesses || a.L2.Misses != b.L2.Misses || a.L2.Writes != b.L2.Writes:
		return "L2 counters differ"
	case a.fetchBlockedBy != b.fetchBlockedBy || a.fetchResumeAt != b.fetchResumeAt:
		return fmt.Sprintf("fetch block %d@%d vs reference %d@%d",
			a.fetchBlockedBy, a.fetchResumeAt, b.fetchBlockedBy, b.fetchResumeAt)
	case a.robHead != b.robHead || a.robLen != b.robLen:
		return fmt.Sprintf("ROB head/len %d/%d vs reference %d/%d", a.robHead, a.robLen, b.robHead, b.robLen)
	case a.intIQ != b.intIQ || a.fpIQ != b.fpIQ:
		return fmt.Sprintf("IQs %d/%d vs reference %d/%d", a.intIQ, a.fpIQ, b.intIQ, b.fpIQ)
	case !slices.Equal(a.waiting, b.waiting):
		return fmt.Sprintf("waiting %v vs reference %v", a.waiting, b.waiting)
	}
	return ""
}

// TestWaitingListInvariant checks after every Step that the waiting list
// is exactly the ROB slots in sWaiting, oldest first, that its length
// equals the two issue queues' occupancy, and that the ROB ring never
// holds more than ROBSize entries.
func TestWaitingListInvariant(t *testing.T) {
	for _, tc := range issueSetups {
		for _, bench := range []string{"mcf", "applu"} {
			s := newStepSystem(t, bench, tc.scheme, tc.ideal, 3)
			var want []int
			for c := 0; c < 40_000; c++ {
				s.Step()
				want = want[:0]
				for i := 0; i < s.robLen; i++ {
					if slot := (s.robHead + i) & s.robMask; s.rob[slot].state == sWaiting {
						want = append(want, slot)
					}
				}
				if !slices.Equal(s.waiting, want) {
					t.Fatalf("%s/%s: cycle %d: waiting %v, ROB has %v", tc.name, bench, c, s.waiting, want)
				}
				if len(s.waiting) != s.intIQ+s.fpIQ {
					t.Fatalf("%s/%s: cycle %d: %d waiting, IQs hold %d+%d",
						tc.name, bench, c, len(s.waiting), s.intIQ, s.fpIQ)
				}
				if s.robLen > s.Cfg.ROBSize {
					t.Fatalf("%s/%s: cycle %d: ROB holds %d entries, capacity %d",
						tc.name, bench, c, s.robLen, s.Cfg.ROBSize)
				}
			}
		}
	}
}
