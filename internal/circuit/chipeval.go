package circuit

import (
	"math"

	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// Geometry describes the physical organization of the 64 KB L1 data
// cache (§3.2): 1024 lines of 512 bits, stored in 8 sub-arrays of
// 256×256 bits. Arrays are paired; each pair's 64 shared sense
// amplifiers assemble the 512-bit blocks, and a line's bits straddle the
// two arrays of its pair.
//
// For within-die variation the floorplan is discretized into TileCols ×
// TileRows correlation tiles (finer than the 8 sub-arrays: each
// sub-array column is split into 16-line tile rows, following the §3.1
// observation that gate length is strongly correlated only within small
// sub-array regions).
type Geometry struct {
	Lines        int // cache lines
	CellsPerLine int // data bits per line
	TagBits      int // tag/status cells per line (share the line's fate)
	TileCols     int // variation-field columns (= physical sub-arrays)
	TileRows     int // variation-field rows per column
}

// L1D is the paper's L1 data-cache geometry.
var L1D = Geometry{
	Lines:        1024,
	CellsPerLine: 512,
	TagBits:      32,
	TileCols:     8,
	TileRows:     16,
}

// LinesPerTileRow returns how many consecutive lines share one tile row.
func (g Geometry) LinesPerTileRow() int {
	perPair := g.Lines / (g.TileCols / 2)
	return perPair / g.TileRows
}

// LineTiles returns the two variation tiles holding the line's bits: the
// line lives in one array pair (two adjacent columns) at a tile row
// determined by its wordline.
func (g Geometry) LineTiles(line int) (x0, x1, y int) {
	pairs := g.TileCols / 2
	perPair := g.Lines / pairs
	pair := line / perPair
	row := line % perPair
	y = row / g.LinesPerTileRow()
	return 2 * pair, 2*pair + 1, y
}

// Transistor slots within a cell for per-transistor Vth draws.
const (
	slotT1    uint8 = iota // 3T1D write access / 6T read access
	slotT2                 // 3T1D storage read / 6T read driver
	slotT3                 // 3T1D read wordline
	slotKeepA              // 6T cross-coupled keeper A
	slotKeepB              // 6T cross-coupled keeper B
)

// ChipEval evaluates circuit-level figures of merit for one sampled chip.
// It is stateless and safe for concurrent use across chips.
type ChipEval struct {
	Tech Tech
	Geom Geometry
	Chip *variation.Chip
	// Backend selects the cell-physics model producing the retention
	// map and cell-leakage figures; nil means the reference 3T1D model
	// (Backend3T1D). The 6T SRAM figures (SRAM*) are the comparison
	// baseline and stay backend-independent.
	Backend CellBackend
}

// ActiveBackend returns the effective cell backend (Backend3T1D when
// the field is unset). Both candidates are pre-bound package values,
// so the returned interface never allocates.
func (e ChipEval) ActiveBackend() CellBackend {
	if e.Backend != nil {
		return e.Backend
	}
	return Backend3T1D
}

// NewChipEval bundles a technology, geometry, and chip sample.
func NewChipEval(t Tech, g Geometry, c *variation.Chip) ChipEval {
	return ChipEval{Tech: t, Geom: g, Chip: c}
}

// cellID gives every cell of the cache a unique index for hash draws.
func (e ChipEval) cellID(line, cell int) uint64 {
	return uint64(line)*uint64(e.Geom.CellsPerLine+e.Geom.TagBits) + uint64(cell)
}

// cellDevice materializes one transistor's process corner.
func (e ChipEval) cellDevice(line, cell int, slot uint8, tileX, tileY int) Device {
	return Device{
		DL:   e.Chip.DeltaL(tileX, tileY),
		DVth: e.Chip.DeltaVth(e.cellID(line, cell), slot),
	}
}

// LineRetention returns the retention time (seconds) of one cache line
// under the active cell backend: the minimum retention over its data
// and tag cells (§4.3.1 — a line's retention is defined by its worst
// cell so no data is ever lost during it).
//
//unit:result seconds
func (e ChipEval) LineRetention(line int) float64 {
	return e.ActiveBackend().LineRetention(e, line)
}

// boundSlackVolts is subtracted from the margin bound of every cell in
// the 3T1D kernel. It covers what keeps the bound from being an exact
// floating-point lower bound: math.Log/math.Exp are not correctly
// rounded (a 1-ulp non-monotonicity, ~1e-16 V on a ~0.5 V level) and
// the bound multiplies by 1/retLeak where the exact path divides.
const boundSlackVolts = 1e-9

// retention3T1D is the 3T1D backend's line kernel: bound and skip.
//
// A line's retention is the minimum over its cells, and only the few
// tail cells near that minimum can set it. Each cell's three threshold
// draws g = σ·InvNormCDF(m/2^53) come from 53-bit hash integers m; the
// kernel buckets m (stats.GaussBucket) before it pays for any
// transcendental, and stats.GaussBucketBounds gives lo ≤ z ≤ hi for the
// bucket. Retention falls with g2 and g3 (they raise the required level
// vreq) and, through the stored level v0, with g1; but g1 also slows the
// T1 leak, so the bound takes v0 at g1's upper bound and 1/retLeak at
// its lower one:
//
//	r ≥ (v0(σ·hi1) − vreq(σ·hi2, σ·hi3) − ε) · invDecay · invLeak(σ·lo1)
//
// where ε = boundSlackVolts and the stats bounds carry their own slack
// (larger than Acklam's 4.4e-9 branch jump). The T3 required-level
// scale and the T1 leak factor are tabulated per tile at every bucket's
// bound (scaleHi, invLeakLo), so a cell costs three hashes, three
// bucket lookups and a few flops. A cell whose bound is at or above the
// line's running minimum cannot lower it and is skipped; every other
// cell runs the exact expressions of cellRetention. The output is
// bit-identical to evaluating every cell, not merely close: the bound
// only decides whether a cell is evaluated, and the cell order, the
// strict r < min update and the dead-cell break are unchanged. Dead
// cells are never skipped: a non-positive margin gives a negative bound,
// and a non-positive stored level is caught by testing v0's bound.
//
// The tables are fixed-size arrays rebuilt once per tile pair (the 16
// consecutive lines that share one), so the kernel lives on its
// caller's stack and allocates nothing.
type retention3T1D struct {
	tech  Tech
	geom  Geometry
	chip  *variation.Chip
	seed  uint64
	sigma float64
	tiles [3]int // (x0, x1, y) the per-tile state below was built for
	p     [2]tileParams
	// monotone records that the technology's signs make the retention
	// fall with g2, g3 and v0 and rise with 1/retLeak (and σ > 0).
	// bounded adds the tile's decay scale being positive. Where either
	// fails, the tile's cells all run the exact path.
	monotone  bool
	bounded   [2]bool
	scaleHi   [2][stats.GaussBuckets]float64 // T3 scale at σ·hi
	invLeakLo [2][stats.GaussBuckets]float64 // T1 1/retLeak at σ·lo
}

func (k *retention3T1D) init(e *ChipEval) {
	k.tech = e.Tech
	k.geom = e.Geom
	k.chip = e.Chip
	k.seed = e.Chip.Seed()
	k.sigma = e.Chip.Scenario.SigmaVth
	t := &k.tech
	k.monotone = k.sigma > 0 && t.Vth0 > 0 && t.Alpha > 0 && t.T3Weight >= 0 && t.DiodeBoost > 0 && t.RetLeakSens > 0
	k.tiles = [3]int{-1, -1, -1}
}

// buildTile fills tile half h's parameters and bound tables.
func (k *retention3T1D) buildTile(h, tx, ty int) {
	t := &k.tech
	p := &k.p[h]
	*p = newTileParams(t, k.chip.DeltaL(tx, ty))
	k.bounded[h] = k.monotone && p.invDecay > 0
	if !k.bounded[h] {
		return
	}
	for b := range k.scaleHi[h] {
		lo, hi := stats.GaussBucketBounds(b)
		k.scaleHi[h][b] = p.scale(t, k.sigma*hi)
		k.invLeakLo[h][b] = 1 / p.retLeak(t, t.Vth0*(1+k.sigma*lo)+p.vthShift)
	}
}

// line returns the line's retention in seconds.
//
//unit:result seconds
func (k *retention3T1D) line(line int) float64 {
	x0, x1, y := k.geom.LineTiles(line)
	if tiles := [3]int{x0, x1, y}; tiles != k.tiles {
		k.buildTile(0, x0, y)
		k.buildTile(1, x1, y)
		k.tiles = tiles
	}
	t := &k.tech
	min := math.Inf(1)
	total := k.geom.CellsPerLine + k.geom.TagBits
	half := k.geom.CellsPerLine / 2
	base := uint64(line) * uint64(total) // cellID of the line's cell 0
	for cell := 0; cell < total; cell++ {
		h := 0
		if cell >= half && cell < k.geom.CellsPerLine {
			h = 1 // second half of the data bits lives in the pair's other array
		}
		p := &k.p[h]
		id := base + uint64(cell)
		var g1, g2, g3 float64
		if k.sigma != 0 {
			m1 := stats.HashBits53(k.seed, stats.Mix64(id, uint64(slotT1)))
			m2 := stats.HashBits53(k.seed, stats.Mix64(id, uint64(slotT2)))
			m3 := stats.HashBits53(k.seed, stats.Mix64(id, uint64(slotT3)))
			if k.bounded[h] {
				b1 := stats.GaussBucket(m1)
				_, hi1 := stats.GaussBucketBounds(b1)
				_, hi2 := stats.GaussBucketBounds(stats.GaussBucket(m2))
				v0 := t.Vdd - (t.Vth0*(1+k.sigma*hi1) + p.vthShift)
				vreq := (t.Vth0*(1+k.sigma*hi2) + p.vthShift + p.overNom*k.scaleHi[h][stats.GaussBucket(m3)]) / t.DiodeBoost
				if v0 > 0 && (v0-vreq-boundSlackVolts)*p.invDecay*k.invLeakLo[h][b1] >= min {
					continue // r ≥ bound ≥ min: the cell cannot lower the line's retention
				}
			}
			g1 = k.sigma * stats.InvNormCDF(stats.Bits53Uniform(m1))
			g2 = k.sigma * stats.InvNormCDF(stats.Bits53Uniform(m2))
			g3 = k.sigma * stats.InvNormCDF(stats.Bits53Uniform(m3))
		}
		if r := cellRetention(t, p, g1, g2, g3); r < min {
			min = r
			if min == 0 {
				break // a dead cell kills the whole line; no need to keep scanning
			}
		}
	}
	return min
}

// tileParams holds the per-tile (systematic) quantities hoisted out of
// the per-cell retention kernel.
type tileParams struct {
	vthShift float64 //unit:volts // SCE·dL·Vth0, added to every device threshold
	ln1pdL   float64 // ln(1+dL)
	invDecay float64 //unit:seconds/volts // T0 / (margin0 · (1+dL)^-1), Vth part applied per cell
	overNom  float64 //unit:volts // nominal T2 gate overdrive at the crossing
	lnOver3  float64 // ln of nominal T3 overdrive, for the drive-factor log
}

// newTileParams hoists the quantities of a tile with gate-length
// deviation dL.
//
//unit:param dL dimensionless
func newTileParams(t *Tech, dL float64) tileParams {
	v0n := t.nominalStoredLevel()
	vreqNom := v0n * (1 - t.MarginFrac)
	overNom := t.DiodeBoost*vreqNom - t.Vth0
	if overNom < 0.05 {
		overNom = 0.05
	}
	return tileParams{
		vthShift: t.SCE * dL * t.Vth0,
		ln1pdL:   math.Log1p(dL),
		invDecay: t.Retention3T1D / (v0n * t.MarginFrac) * (1 + dL),
		overNom:  overNom,
		lnOver3:  math.Log(t.Vdd - t.Vth0),
	}
}

// scale is the required-level scale (DF3^-T3Weight · (1+dL))^(1/α) of
// a T3 with threshold deviation g3, its drive factor taken in log
// space: α·ln(over/overNom) - ln(1+dL). It is non-decreasing in g3.
//
//unit:param g3 dimensionless
//unit:result dimensionless
func (p *tileParams) scale(t *Tech, g3 float64) float64 {
	over3 := t.Vdd - (t.Vth0*(1+g3) + p.vthShift)
	if over3 < 1e-3 {
		over3 = 1e-3
	}
	lnDF3 := t.Alpha*(math.Log(over3)-p.lnOver3) - p.ln1pdL
	return math.Exp((-t.T3Weight*lnDF3 + p.ln1pdL) / t.Alpha)
}

// retLeak is retLeakFactor(T1) without its (1+dL), which invDecay
// carries: the Vth exponential of a T1 with threshold vth1.
//
//unit:param vth1 volts
//unit:result dimensionless
func (p *tileParams) retLeak(t *Tech, vth1 float64) float64 {
	return math.Exp(-(vth1 - t.Vth0) / t.RetLeakSens)
}

// cellRetention is the hoisted equivalent of Tech.RetentionTime for a
// cell whose three transistors share a tile corner p and have i.i.d.
// threshold deviations g1..g3 (already scaled by σVth, as ΔVth/Vth0).
//
//unit:param g1 dimensionless
//unit:param g2 dimensionless
//unit:param g3 dimensionless
//unit:result seconds
func cellRetention(t *Tech, p *tileParams, g1, g2, g3 float64) float64 {
	// T1: stored level and decay corner.
	vth1 := t.Vth0*(1+g1) + p.vthShift
	v0 := t.Vdd - vth1
	if v0 <= 0 {
		return 0
	}
	vreq := (t.Vth0*(1+g2) + p.vthShift + p.overNom*p.scale(t, g3)) / t.DiodeBoost
	margin := v0 - vreq
	if margin <= 0 {
		return 0
	}
	// Decay: margin0/T0 · retLeakFactor(T1); retLeakFactor's (1+dL) is
	// folded into invDecay, leaving the Vth exponential per cell.
	return margin * p.invDecay / p.retLeak(t, vth1)
}

// RetentionMap returns the retention time of every line, in seconds,
// produced by the active cell backend. The interface is crossed once
// per chip; the per-line loop runs inside the backend.
//
//unit:result seconds
func (e ChipEval) RetentionMap() []float64 {
	return e.ActiveBackend().RetentionMap(e)
}

// CellLeakageFactor returns the active backend's cache leakage relative
// to the golden 6T design (the Fig. 7 normalization).
//
//unit:result dimensionless
func (e ChipEval) CellLeakageFactor() float64 {
	return e.ActiveBackend().LeakageFactor(e)
}

// CacheRetention returns the whole-cache retention under the global
// scheme: the minimum of the retention map (§4.3 — "the memory cell
// with the shortest retention time determines the retention time of
// the entire structure").
//
//unit:result seconds
func (e ChipEval) CacheRetention() float64 {
	min := math.Inf(1)
	for _, r := range e.RetentionMap() {
		if r < min {
			min = r
		}
	}
	return min
}

// SRAMWorstAccessTime scans every cell of the cache and returns the
// slowest array access time (seconds) for the given 6T cell variant.
// This is the exact (sampled) evaluation; SRAMWorstAccessTimeFast is the
// extreme-value approximation used inside large Monte-Carlo sweeps.
//
//unit:result seconds
func (e ChipEval) SRAMWorstAccessTime(cell SRAM6T) float64 {
	worst := 0.0
	for line := 0; line < e.Geom.Lines; line++ {
		x0, x1, y := e.Geom.LineTiles(line)
		total := e.Geom.CellsPerLine + e.Geom.TagBits
		half := e.Geom.CellsPerLine / 2
		for c := 0; c < total; c++ {
			tx := x0
			if c >= half && c < e.Geom.CellsPerLine {
				tx = x1
			}
			access := e.cellDevice(line, c, slotT1, tx, y)
			driver := e.cellDevice(line, c, slotT2, tx, y)
			df := cell.ReadDelayFactor(e.Tech, access, driver)
			at := ArrayAccessTime(e.Tech, df, Device{DL: e.Chip.DeltaL(tx, y)})
			if at > worst {
				worst = at
			}
		}
	}
	return worst
}

// SRAMWorstAccessTimeFast approximates SRAMWorstAccessTime using
// extreme-value theory: within each correlation tile the worst cell's
// random-dopant corner is the expected maximum of the tile's i.i.d.
// draws plus a Gumbel fluctuation (hash-seeded per tile so the result is
// deterministic per chip). Agreement with the exact scan is verified in
// tests; the fast path makes 1000-chip distribution studies cheap.
//
//unit:result seconds
func (e ChipEval) SRAMWorstAccessTimeFast(cell SRAM6T) float64 {
	g := e.Geom
	cellsPerTile := g.Lines / (g.TileCols / 2) / g.TileRows * (g.CellsPerLine + g.TagBits) / 2
	// Each cell contributes two read-path transistors; the series delay
	// is dominated by the weaker, so the tile's worst cell behaves like
	// the max of ~2n Gaussians applied to one device.
	m := float64(2 * cellsPerTile)
	am := math.Sqrt(2 * math.Log(m))
	am -= (math.Log(math.Log(m)) + math.Log(4*math.Pi)) / (2 * am)
	bm := math.Sqrt(2 * math.Log(m))
	worst := 0.0
	sigma := e.Chip.Scenario.SigmaVth * cell.VthSigmaScale()
	for tx := 0; tx < g.TileCols; tx++ {
		for ty := 0; ty < g.TileRows; ty++ {
			// Deterministic Gumbel fluctuation for this tile.
			u := stats.HashUniform(e.Chip.Seed()^0xfa57, uint64(tx*64+ty))
			if u < 1e-12 {
				u = 1e-12
			}
			gum := -math.Log(-math.Log(u))
			dvWorst := sigma * (am + gum/bm)
			dev := Device{DL: e.Chip.DeltaL(tx, ty), DVth: dvWorst / cell.VthSigmaScale()}
			df := cell.ReadDelayFactor(e.Tech, dev, dev)
			at := ArrayAccessTime(e.Tech, df, Device{DL: e.Chip.DeltaL(tx, ty)})
			if at > worst {
				worst = at
			}
		}
	}
	return worst
}

// SRAMFrequencyFactor returns the chip's normalized frequency (≤1) for
// the given cell variant using the fast worst-cell evaluation.
//
//unit:result dimensionless
func (e ChipEval) SRAMFrequencyFactor(cell SRAM6T) float64 {
	return FrequencyFactor(e.Tech, e.SRAMWorstAccessTimeFast(cell))
}

// SRAMUnstableFraction returns the expected fraction of 6T cells whose
// read is pseudo-destructive, computed analytically: the mismatch of the
// two cross-coupled keepers is N(0, 2·(σVth·Vth0·scale)²) and the cell
// flips when |mismatch| exceeds the threshold.
//
//unit:result dimensionless
func (e ChipEval) SRAMUnstableFraction(cell SRAM6T) float64 {
	sigma := e.Chip.Scenario.SigmaVth * e.Tech.Vth0 * cell.VthSigmaScale()
	if sigma == 0 {
		return 0
	}
	sd := sigma * math.Sqrt2
	return math.Erfc(e.Tech.FlipThreshold / (sd * math.Sqrt2))
}

// SRAMLineFailureProbability returns the probability that a line of n
// cells contains at least one unstable cell — the paper's §2.1 point
// that 256-bit lines fail with 1-(1-p)^256 probability, which defeats
// line-level redundancy.
//
//unit:result dimensionless
func (e ChipEval) SRAMLineFailureProbability(cell SRAM6T, n int) float64 {
	p := e.SRAMUnstableFraction(cell)
	return 1 - math.Pow(1-p, float64(n))
}

// iidLeakMultiplier is E[exp(-ΔVth·Vth0/s)] over the random-dopant
// distribution: the lognormal mean shift that i.i.d. Vth noise adds to
// every chip's leakage.
//
//unit:param sigmaScale dimensionless
//unit:result dimensionless
func (e ChipEval) iidLeakMultiplier(sigmaScale float64) float64 {
	s := e.Chip.Scenario.SigmaVth * e.Tech.Vth0 * sigmaScale
	return math.Exp(s * s / (2 * e.Tech.SubVTSlope * e.Tech.SubVTSlope))
}

// SRAMLeakageFactor returns the chip's total 6T cache leakage relative
// to the golden (no-variation) design: the tile-systematic corner factor
// averaged over the floorplan times the analytic i.i.d. multiplier.
//
//unit:result dimensionless
func (e ChipEval) SRAMLeakageFactor(cell SRAM6T) float64 {
	sum := 0.0
	n := 0
	for tx := 0; tx < e.Geom.TileCols; tx++ {
		for ty := 0; ty < e.Geom.TileRows; ty++ {
			d := Device{DL: e.Chip.DeltaL(tx, ty)}
			sum += e.Tech.LeakFactor(d)
			n++
		}
	}
	return sum / float64(n) * e.iidLeakMultiplier(cell.VthSigmaScale())
}

// Leakage3T1DFactor returns the chip's 3T1D cache leakage relative to
// the *golden 6T* design (the Fig. 7 normalization).
//
//unit:result dimensionless
func (e ChipEval) Leakage3T1DFactor() float64 {
	sum := 0.0
	n := 0
	for tx := 0; tx < e.Geom.TileCols; tx++ {
		for ty := 0; ty < e.Geom.TileRows; ty++ {
			d := Device{DL: e.Chip.DeltaL(tx, ty)}
			sum += e.Tech.LeakFactor(d)
			n++
		}
	}
	return Leak3T1DRatio * sum / float64(n) * e.iidLeakMultiplier(1)
}
