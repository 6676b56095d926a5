// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks the program's outputs, and prints every
// metric by name with its unit. Run it from the repository root:
//
//	bash perfbench/run.sh --workload scheme-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of the workload. With
// --trace 1 it runs a traced tour instead: one traced pass of every
// workload plus direct drives of single layers, and prints the per-layer
// metrics (see README.md). The last line of standard output is the
// result object; the line before it records the environment and a digest
// of the outputs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"tdcache/internal/artifact"
)

// config is what every workload is built from.
type config struct {
	// seed roots every generated input.
	seed uint64
	// workers bounds threads, sweep workers and client connections.
	workers int
	// root is the repository checkout the benchmark reads inputs from.
	root string
	// scratch is where the benchmark writes (under .bench_build).
	scratch string
	// serveRef is serve-mix's reference output, built by prepareServe.
	serveRef *serveReference
}

// instance is one set-up workload: its inputs, ready to run passes over.
type instance interface {
	// pass runs one unit of work, checks its outputs, appends one
	// latency per item to lat, and returns how many items failed.
	pass(t tracer, lat *[]time.Duration) (failed int, err error)
	// summary records the outputs of the passes run so far: a digest
	// that two runs or two commits can compare exactly, and any counts
	// the gate reports without failing on.
	summary() map[string]any
	// layers adds this workload's per-layer metrics for the traced pass
	// filed under t.run; it may drive single layers directly, traced by t.
	layers(t tracer, m metricSet) error
	close() error
}

// spec names a workload and how to set it up.
type spec struct {
	name  string
	setUp func(c *config, t tracer) (instance, error)
	// prepare, if set, builds the benchmark's own reference outputs
	// once per run, before the timed set-ups.
	prepare func(c *config) error
	// overheadPasses is how many passes the traced run times with and
	// without tracing to estimate the tracing overhead.
	overheadPasses int
}

var specs = []spec{
	{name: "repro-quick", setUp: setUpRepro, overheadPasses: 1},
	{name: "scheme-sweep", setUp: setUpSweep, overheadPasses: 3},
	{name: "chip-population", setUp: setUpChips, overheadPasses: 3},
	{name: "serve-mix", setUp: setUpServe, prepare: prepareServe, overheadPasses: 3},
}

// A run sets its workload up at least minSetUps times, and keeps going
// (up to maxSetUps) while the set-ups so far took less than setUpTime in
// total, so that a short set-up is timed often enough for a steady
// median. setup_s is the median.
const (
	minSetUps = 3
	maxSetUps = 1000
	setUpTime = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced tour and prints per-layer metrics")
	flag.Parse()
	sp, ok := lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	root, werr := os.Getwd()
	if werr != nil {
		return fmt.Errorf("working directory: %w", werr)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	c := &config{
		seed:    *seed,
		workers: min(runtime.GOMAXPROCS(0), runtime.NumCPU()),
		root:    root,
		scratch: filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", sp.name, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return fmt.Errorf("scratch: %w", err)
	}
	defer func() { err = errors.Join(err, os.RemoveAll(c.scratch)) }()

	var res result
	var info map[string]any
	if *trace == 1 {
		res, info, err = traced(sp, c)
	} else {
		res, info, err = measure(sp, c, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	info["env"] = environment(c)
	if err := printJSON(info); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d items failed their correctness gate", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

func lookup(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func names() []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.name
	}
	return out
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if _, err := fmt.Printf("%s\n", b); err != nil {
		return fmt.Errorf("print result: %w", err)
	}
	return nil
}

// setUpMedian sets the workload up between lo and hi times (see
// minSetUps), keeping the last one, and returns it with the median
// set-up time in seconds.
func setUpMedian(sp spec, c *config, lo, hi int) (instance, float64, error) {
	if sp.prepare != nil {
		if err := sp.prepare(c); err != nil {
			return nil, 0, err
		}
	}
	var w instance
	var times []float64
	var spent time.Duration
	for len(times) < hi && (len(times) < lo || spent < setUpTime) {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if w, err = sp.setUp(c, tracer{}); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return w, median(times), nil
}

// passStats accumulates per-pass costs and per-item latencies.
type passStats struct {
	wall, cpu, alloc []float64
	lat              []time.Duration
	// firstItems is how many items the first pass contributed to lat.
	firstItems int
	failed     int
}

// runPass times one pass of w.
func (ps *passStats) runPass(w instance, t tracer) error {
	cpu0, alloc0 := cpuSeconds(), allocBytes()
	t0 := time.Now()
	failed, err := w.pass(t, &ps.lat)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if len(ps.wall) == 0 {
		ps.firstItems = len(ps.lat)
	}
	ps.wall = append(ps.wall, wall)
	ps.cpu = append(ps.cpu, cpuSeconds()-cpu0)
	ps.alloc = append(ps.alloc, float64(allocBytes()-alloc0))
	ps.failed += failed
	return nil
}

// measure is the untraced run: set up, then run passes until d has
// elapsed (at least one pass; a pass is never cut short). The first
// pass warms the heap and the processor's caches; when more passes
// followed it, it is left out of the timings (its outputs are still
// checked).
func measure(sp spec, c *config, d time.Duration) (result, map[string]any, error) {
	w, setup, err := setUpMedian(sp, c, minSetUps, maxSetUps)
	if err != nil {
		return result{}, nil, err
	}
	var ps passStats
	start := time.Now()
	for len(ps.wall) == 0 || time.Since(start) < d {
		if err := ps.runPass(w, tracer{}); err != nil {
			return result{}, nil, errors.Join(err, w.close())
		}
	}
	summary := w.summary()
	if err := w.close(); err != nil {
		return result{}, nil, err
	}
	attempted := len(ps.lat)
	if len(ps.wall) > 1 {
		ps.wall, ps.cpu, ps.alloc, ps.lat = ps.wall[1:], ps.cpu[1:], ps.alloc[1:], ps.lat[ps.firstItems:]
	}
	m := metricSet{}
	m.set("setup_s", "s", setup)
	m.set("wall_s", "s", median(ps.wall))
	m.set("cpu_s", "s", median(ps.cpu))
	m.set("alloc_mb", "MB", median(ps.alloc)/1e6)
	m.set("p50_ms", "ms", percentile(ps.lat, 0.50))
	m.set("p90_ms", "ms", percentile(ps.lat, 0.90))
	res := result{Correct: ps.failed == 0, Attempted: attempted, Failed: ps.failed, Metrics: m}
	info := map[string]any{
		"workload": sp.name, "pass_wall_s": ps.wall, "timed_items": len(ps.lat),
		"error_frac": float64(ps.failed) / float64(attempted), "outputs": summary,
	}
	return res, info, nil
}

// traced is the traced run. It first times sp's passes untraced, then
// tours every workload with tracing on — set-up, one traced pass (or
// sp.overheadPasses of sp itself), and the workload's layer drives —
// and derives the per-layer metrics from the recorded spans. The
// per-layer set is the same whichever workload is named; the name picks
// whose traced-versus-untraced wall gives trace.overhead_frac.
func traced(sp spec, c *config) (result, map[string]any, error) {
	w, _, err := setUpMedian(sp, c, 1, 1)
	if err != nil {
		return result{}, nil, err
	}
	var plain passStats
	for i := 0; i < sp.overheadPasses; i++ {
		if err := plain.runPass(w, tracer{}); err != nil {
			return result{}, nil, errors.Join(err, w.close())
		}
	}
	if err := w.close(); err != nil {
		return result{}, nil, err
	}

	rec := newRecorder()
	m := metricSet{}
	var tracedWall []float64
	attempted, failed := len(plain.lat), plain.failed
	summaries := map[string]any{}
	for i, other := range specs {
		// Set-up spans are filed under run base, pass j under base+j+1.
		base := int64(i+1) * 1000
		if other.prepare != nil && other.name != sp.name {
			if err := other.prepare(c); err != nil {
				return result{}, nil, err
			}
		}
		st := tracer{rec: rec, run: base}.begin("bench.setup/" + other.name)
		w, err := other.setUp(c, st)
		st.end()
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", other.name, err)
		}
		n := 1
		if other.name == sp.name {
			n = sp.overheadPasses
		}
		var ps passStats
		var last tracer
		for j := 0; j < n; j++ {
			last = tracer{rec: rec, run: base + int64(j) + 1}
			pt := last.begin("bench.pass/" + other.name)
			err := ps.runPass(w, pt)
			pt.end()
			if err != nil {
				return result{}, nil, errors.Join(err, w.close())
			}
		}
		if other.name == sp.name {
			tracedWall = ps.wall
		}
		attempted += len(ps.lat)
		failed += ps.failed
		summaries[other.name] = w.summary()
		// Per-layer metrics describe the last traced pass.
		if err := errors.Join(w.layers(last, m), w.close()); err != nil {
			return result{}, nil, fmt.Errorf("%s layers: %w", other.name, err)
		}
	}
	spans := rec.snapshot()
	self := layerSelf(spans)
	for _, l := range []string{"variation", "circuit", "montecarlo", "workload", "core", "cpu", "power", "sweep", "experiments", "artifact", "serve"} {
		m.set(l+".self_s", "s", self[l].Seconds())
	}
	m.set("trace.overhead_frac", "ratio", median(tracedWall)/median(plain.wall)-1)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", sp.name, c.seed))
	if err := rec.write(filepath.Join(c.root, path)); err != nil {
		return result{}, nil, err
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
	info := map[string]any{"workload": sp.name, "spans": len(spans), "trace_file": path, "outputs": summaries}
	return res, info, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of d, in milliseconds.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i].Nanoseconds()) / 1e6
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// environment records what the run ran on and which code it ran.
func environment(c *config) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    c.workers,
		"cpu":        cpuModel(),
		"commit":     commit(c.root),
		"source":     sourceDigest(c.root),
		"seed":       c.seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// a checkout without .git reports "none" (sourceDigest still
// identifies the code).
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and golden outputs
// of the checkout (outside hidden directories), in path order.
func sourceDigest(root string) string {
	h := artifact.NewHasher()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(p); ext != ".go" && ext != ".mod" && ext != ".txt" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		h.String(filepath.ToSlash(rel), string(b))
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return h.Sum()[:16]
}

// hashBytes is the hex sha256 of b.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
