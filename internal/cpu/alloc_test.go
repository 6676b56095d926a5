package cpu

import (
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

type stepSetup struct {
	name   string
	scheme core.Scheme
	ideal  bool
}

// stepSetups are the cache setups the hot-path tests drive: an ideal 6T
// cache and two retention-limited 3T1D schemes whose dead and short
// lines (see newStepSystem) exercise DSP bypasses, refresh and
// load-port stalls.
var stepSetups = []stepSetup{
	{"ideal-6T", core.NoRefreshLRU, true},
	{"partial-refresh-DSP", core.PartialRefreshDSP, false},
	{"RSP-LRU", core.RSPLRU, false},
}

// newStepSystem builds a system running bench on a cache of the given
// scheme. Unless ideal, one line in 8 is dead, 2 in 8 hold 3K cycles and
// the rest 7K cycles.
func newStepSystem(t *testing.T, bench string, scheme core.Scheme, ideal bool, seed uint64) *System {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("%s profile missing", bench)
	}
	ccfg := core.DefaultConfig(scheme)
	ret := core.IdealRetention(ccfg.Lines())
	if !ideal {
		for l := range ret {
			switch l % 8 {
			case 0:
				ret[l] = 0
			case 1, 2:
				ret[l] = 3 * 1024
			default:
				ret[l] = 7 * 1024
			}
		}
	}
	cache, err := core.New(ccfg, ret)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(DefaultConfig(), cache, NewL2(DefaultL2()), workload.NewGenerator(prof, seed))
}

// TestSystemStepZeroAllocs is the proof test behind the `//hotpath:` tag
// on System.Step: once the memory-hierarchy queues reach steady state, a
// simulated cycle — fetch, dispatch, issue, commit, cache and L2 traffic
// included — performs zero heap allocations, for an ideal 6T cache and
// for retention-limited 3T1D schemes alike.
func TestSystemStepZeroAllocs(t *testing.T) {
	for _, tc := range stepSetups {
		t.Run(tc.name, func(t *testing.T) {
			sys := newStepSystem(t, "mcf", tc.scheme, tc.ideal, 42)
			for i := 0; i < 200_000; i++ {
				sys.Step()
			}
			avg := testing.AllocsPerRun(5000, sys.Step)
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state cycle, want 0", tc.name, avg)
			}
		})
	}
}
