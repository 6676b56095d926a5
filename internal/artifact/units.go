package artifact

// Column-unit vocabulary. Every Column.Unit / Metric.Unit value in the
// repo's artifacts is one of these named constants, so the schema stays
// a closed set that Validate can check and downstream consumers can
// switch on. Each constant carries the unit it names as its own
// //unit: tag, documenting the vocabulary in the same grammar the
// simulator's quantities use.
const (
	// UnitNone marks label columns and unitless identifiers.
	UnitNone = "" //unit:dimensionless
	// UnitCount marks plain event counts (accesses, lines, chips).
	UnitCount = "count" //unit:dimensionless
	// UnitFraction marks rates in [0,1] (miss rates, discard rates).
	UnitFraction = "fraction" //unit:dimensionless
	// UnitPercent marks rates scaled to [0,100].
	UnitPercent = "percent" //unit:dimensionless
	// UnitRatio marks values normalized to a baseline (perf, power).
	UnitRatio = "ratio" //unit:dimensionless
	// UnitIPC marks instructions-per-cycle throughput.
	UnitIPC = "ipc" //unit:dimensionless
	// UnitCycles marks durations counted in clock cycles.
	UnitCycles = "cycles" //unit:cycles
	// UnitNanoseconds marks times in nanoseconds (retention times).
	UnitNanoseconds = "nanoseconds" //unit:nanoseconds
	// UnitMicroseconds marks times in microseconds (refresh periods).
	UnitMicroseconds = "microseconds" //unit:microseconds
	// UnitPicoseconds marks times in picoseconds (access delays).
	UnitPicoseconds = "picoseconds" //unit:picoseconds
	// UnitGigahertz marks clock frequencies in gigahertz.
	UnitGigahertz = "gigahertz" //unit:gigahertz
	// UnitMilliwatts marks powers in milliwatts.
	UnitMilliwatts = "milliwatts" //unit:milliwatts
	// UnitVolts marks supply voltages in volts.
	UnitVolts = "volts" //unit:volts
	// UnitBIPS marks throughput in billions of instructions per second.
	UnitBIPS = "bips" //unit:bips
	// UnitNanometers marks feature sizes in nanometers (tech nodes).
	UnitNanometers = "nanometers" //unit:nanometers
	// UnitMicrometers marks lateral dimensions in micrometers (wires).
	UnitMicrometers = "micrometers" //unit:micrometers
	// UnitSquareMicrometers marks cell/array areas in square micrometers.
	UnitSquareMicrometers = "micrometers^2" //unit:micrometers^2
)

// knownUnits is the closed vocabulary Validate accepts.
var knownUnits = map[string]bool{
	UnitNone:              true,
	UnitCount:             true,
	UnitFraction:          true,
	UnitPercent:           true,
	UnitRatio:             true,
	UnitIPC:               true,
	UnitCycles:            true,
	UnitNanoseconds:       true,
	UnitMicroseconds:      true,
	UnitPicoseconds:       true,
	UnitGigahertz:         true,
	UnitMilliwatts:        true,
	UnitVolts:             true,
	UnitBIPS:              true,
	UnitNanometers:        true,
	UnitMicrometers:       true,
	UnitSquareMicrometers: true,
}

// KnownUnit reports whether u is part of the artifact unit vocabulary.
func KnownUnit(u string) bool { return knownUnits[u] }
