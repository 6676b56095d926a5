package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
	"tdcache/internal/serve"
)

// serve-mix: a closed loop of c.workers keep-alive clients against
// serve.Server over loopback HTTP. Set-up fills a fresh store with
// tiny-parameter computes. The timed mix is Zipf-skewed artifact reads
// over every (experiment, format) pair, conditional GETs that must get
// 304, and registry listings. The hot tier's byte budget is below the
// response working set, so reads split between LRU hits and store reads
// that re-insert with evictions.

// The request mix is an unverified assumption: no measured traffic of
// tdcache-serve exists to derive it from, and no published source backs
// these shares. They stay fixed so that commits are compared on the
// same mix until measured traffic replaces them.
const (
	// serveBatch is the number of requests in one pass.
	serveBatch = 2000
	// zipfS is the assumed popularity skew of artifact reads over fixed
	// popularity ranks.
	zipfS = 1.1
	// listShare and condShare are the assumed shares of listings and of
	// conditional GETs that must get 304; the rest are plain reads.
	listShare = 0.08
	condShare = 0.12
	// hotShare is the hot tier's budget as a share of the working set,
	// chosen below 1 so that reads also exercise store reads and
	// evictions.
	hotShare = 0.4
)

var formats = []artifact.Format{artifact.FormatText, artifact.FormatJSON, artifact.FormatCSV}

// tinyParams is the serve workload's experiment configuration: small
// enough that set-up computes all 18 artifacts in about a second.
func tinyParams(seed uint64) *experiments.Params {
	p := experiments.QuickParams()
	p.Seed = seed
	p.Chips = 3
	p.DistChips = 3
	p.Instructions = 3000
	p.Benchmarks = []string{"gzip", "mcf"}
	p.Parallel = 1
	return p
}

// request is one planned request and the response it must get.
type request struct {
	path   string
	etag   string // If-None-Match value; "" for none
	status int
	// sum is the sha256 the body must have (status 200 only).
	sum string
	// wantETag is the ETag a 200 artifact response must carry.
	wantETag string
}

// firstRequestRun numbers the first request's trace run, above the
// tour's pass runs.
const firstRequestRun = 1 << 20

// Tracing headers: the client's request span and run, so the server's
// handler span joins the request's trace.
const (
	hdrParent = "X-Bench-Parent"
	hdrRun    = "X-Bench-Run"
)

type serveMix struct {
	c      *config
	dir    string
	store  *artifact.Store
	srv    *serve.Server
	hs     *http.Server
	wg     sync.WaitGroup
	base   string
	tr     *http.Transport
	client *http.Client
	// plans holds each client's requests; every pass replays them all.
	plans [][]request
	// reqRun numbers requests; each request is its own trace run.
	reqRun atomic.Int64
	dig    string
	// last holds the counters of the most recent pass.
	last passServe
}

type passServe struct {
	runs                    [2]int64 // request runs [first, last)
	stats                   artifact.CacheStats
	computes, sheds, notMod uint64
}

func setUpServe(c *config, t tracer) (w instance, err error) {
	dir, err := os.MkdirTemp(c.scratch, "store-")
	if err != nil {
		return nil, fmt.Errorf("serve-mix: %w", err)
	}
	s := &serveMix{c: c, dir: dir}
	s.reqRun.Store(firstRequestRun)
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()
	if s.store, err = artifact.NewStore(dir); err != nil {
		return nil, err
	}
	st := t.begin("bench.fill")
	err = s.fill()
	st.end()
	if err != nil {
		return nil, err
	}
	if s.srv, err = serve.New(serve.Options{
		Store: s.store, Quick: tinyParams(c.seed), Workers: c.workers,
		CacheBytes: int64(hotShare * float64(c.serveRef.working)),
	}); err != nil {
		return nil, err
	}
	if err := s.listen(t.rec); err != nil {
		return nil, err
	}
	if err := s.plan(c.serveRef.want); err != nil {
		return nil, err
	}
	return s, nil
}

// fill computes every artifact through a server over the fresh store,
// which commits all three encodings with Store.Put.
func (s *serveMix) fill() error {
	srv, err := serve.New(serve.Options{Store: s.store, Quick: tinyParams(s.c.seed), Workers: s.c.workers})
	if err != nil {
		return err
	}
	defer srv.Close()
	ids := experiments.Names()
	codes := make([]int, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < s.c.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ids); i = int(next.Add(1)) - 1 {
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/experiments/"+ids[i]+"?quick=1", nil))
				codes[i] = rr.Code
			}
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			return fmt.Errorf("serve-mix fill: %s: status %d", ids[i], code)
		}
	}
	return nil
}

// respKey names one artifact representation.
type respKey struct {
	id     string
	format artifact.Format
}

// serveReference is the serve gate's oracle: every artifact built
// directly at the server's parameters, and the response each
// representation must get. It is the benchmark's own check, not the
// server's set-up, so it is built once per run and not counted in
// setup_s.
type serveReference struct {
	arts []artifact.Artifact
	want map[respKey]request
	// working is the size of all representations in bytes.
	working int
}

func prepareServe(c *config) error {
	p := tinyParams(c.seed)
	ids := experiments.Names()
	arts := make([]artifact.Artifact, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for k := 0; k < c.workers; k++ {
		wg.Add(1)
		go func(k int, p *experiments.Params) {
			defer wg.Done()
			for i := k; i < len(ids); i += c.workers {
				arts[i], errs[i] = experiments.Build(ids[i], p)
			}
		}(k, p.Clone())
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("serve-mix reference: %w", err)
	}
	ref := &serveReference{arts: arts, want: make(map[respKey]request)}
	for i, a := range arts {
		digest, err := a.ArtifactTable().Digest()
		if err != nil {
			return fmt.Errorf("serve-mix reference %s: %w", ids[i], err)
		}
		for _, f := range formats {
			var buf bytes.Buffer
			if err := artifact.Encode(&buf, f, a); err != nil {
				return fmt.Errorf("serve-mix reference %s: %w", ids[i], err)
			}
			ref.working += buf.Len()
			ref.want[respKey{ids[i], f}] = request{
				path:     "/v1/experiments/" + ids[i] + "?quick=1&format=" + string(f),
				status:   http.StatusOK,
				sum:      hashBytes(buf.Bytes()),
				wantETag: `"` + digest + `"`,
			}
		}
	}
	c.serveRef = ref
	return nil
}

// listen starts the HTTP server on a loopback port and a client pool of
// c.workers keep-alive connections. With rec set, the handler records a
// span per request.
func (s *serveMix) listen(rec *recorder) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve-mix: %w", err)
	}
	var h http.Handler = s.srv
	if rec != nil {
		h = &tracedHandler{next: s.srv, rec: rec}
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.base = "http://" + ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve-mix:", err)
		}
	}()
	s.tr = &http.Transport{
		MaxIdleConns: s.c.workers, MaxIdleConnsPerHost: s.c.workers, MaxConnsPerHost: s.c.workers,
		DisableCompression: true,
	}
	s.client = &http.Client{Transport: s.tr}
	return nil
}

// plan checks the listing, warms the server's memo with one request per
// experiment, and generates each client's request sequence from the
// seed. The key popularity ranks are fixed (registry order, then text,
// JSON, CSV), so every seed samples the same traffic distribution.
func (s *serveMix) plan(want map[respKey]request) error {
	status, _, list, err := s.send(tracer{}, request{path: "/v1/experiments"})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("serve-mix listing: status %d", status)
	}
	var entries []struct{ ID string }
	if err := json.Unmarshal(list, &entries); err != nil {
		return fmt.Errorf("serve-mix listing: %w", err)
	}
	ids := experiments.Names()
	if len(entries) != len(ids) {
		return fmt.Errorf("serve-mix listing: %d entries, want %d", len(entries), len(ids))
	}
	for i, e := range entries {
		if e.ID != ids[i] {
			return fmt.Errorf("serve-mix listing: entry %d is %q, want %q", i, e.ID, ids[i])
		}
	}
	listing := request{path: "/v1/experiments", status: http.StatusOK, sum: hashBytes(list)}

	keys := make([]respKey, 0, len(ids)*len(formats))
	for _, id := range ids {
		for _, f := range formats {
			keys = append(keys, respKey{id, f})
		}
		if err := s.do(tracer{}, want[respKey{id, artifact.FormatText}]); err != nil {
			return err
		}
	}
	d := artifact.NewHasher()
	for _, k := range keys {
		d.String(k.id+" "+string(k.format), want[k].sum)
	}
	d.String("listing", listing.sum)
	s.dig = d.Sum()

	s.plans = make([][]request, s.c.workers)
	for k := range s.plans {
		rng := rand.New(rand.NewPCG(s.c.seed, uint64(k)+1))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
		plan := make([]request, serveBatch/s.c.workers)
		for i := range plan {
			u := rng.Float64()
			r := want[keys[zipf.Uint64()]]
			switch {
			case u < listShare:
				r = listing
			case u < listShare+condShare:
				r = request{path: r.path, etag: r.wantETag, status: http.StatusNotModified}
			}
			plan[i] = r
		}
		s.plans[k] = plan
	}
	return nil
}

// do sends one request and checks the response against it.
func (s *serveMix) do(t tracer, r request) error {
	status, etag, body, err := s.send(t, r)
	if err != nil {
		return err
	}
	return checkResponse(r, status, etag, body)
}

// send sends one request and returns the response's status, ETag and
// body.
func (s *serveMix) send(t tracer, r request) (status int, etag string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodGet, s.base+r.path, nil)
	if err != nil {
		return 0, "", nil, fmt.Errorf("serve-mix: %w", err)
	}
	if r.etag != "" {
		req.Header.Set("If-None-Match", r.etag)
	}
	if t.rec != nil {
		req.Header.Set(hdrParent, strconv.FormatInt(t.parent, 10))
		req.Header.Set(hdrRun, strconv.FormatInt(t.run, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, fmt.Errorf("serve-mix: %w", err)
	}
	body, rerr := io.ReadAll(resp.Body)
	if err := errors.Join(rerr, resp.Body.Close()); err != nil {
		return 0, "", nil, fmt.Errorf("serve-mix %s: %w", r.path, err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body, nil
}

// errGate marks a response that failed the serve-mix gate.
var errGate = errors.New("serve-mix gate")

// checkResponse is the serve-mix gate for one response: the status must
// be the expected one, and a 200 body must have the sha256 of a direct
// Build+Encode at the same parameters (artifact responses must also
// carry the artifact's ETag).
func checkResponse(r request, status int, etag string, body []byte) error {
	if status != r.status {
		return fmt.Errorf("%w: %s: status %d, want %d", errGate, r.path, status, r.status)
	}
	if status != http.StatusOK {
		return nil
	}
	if got := hashBytes(body); got != r.sum {
		return fmt.Errorf("%w: %s: body sha256 %s, want %s", errGate, r.path, got, r.sum)
	}
	if r.wantETag != "" && etag != r.wantETag {
		return fmt.Errorf("%w: %s: ETag %s, want %s", errGate, r.path, etag, r.wantETag)
	}
	return nil
}

func (s *serveMix) pass(t tracer, lat *[]time.Duration) (int, error) {
	stats0, comp0, shed0 := s.srv.CacheStats(), s.srv.Computes(), s.srv.Sheds()
	run0 := s.reqRun.Load()
	n := len(s.plans)
	lats := make([][]time.Duration, n)
	fails, notMod := make([]int, n), make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lats[k], fails[k], notMod[k], errs[k] = s.client1(t, s.plans[k])
		}(k)
	}
	wg.Wait()
	failed, nm := 0, uint64(0)
	for k := 0; k < n; k++ {
		*lat = append(*lat, lats[k]...)
		failed += fails[k]
		nm += notMod[k]
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	stats := s.srv.CacheStats()
	s.last = passServe{
		runs: [2]int64{run0 + 1, s.reqRun.Load() + 1},
		stats: artifact.CacheStats{
			Hits: stats.Hits - stats0.Hits, Misses: stats.Misses - stats0.Misses, Evictions: stats.Evictions - stats0.Evictions,
		},
		computes: s.srv.Computes() - comp0,
		sheds:    s.srv.Sheds() - shed0,
		notMod:   nm,
	}
	return failed, nil
}

// client1 is one client's closed loop: it sends every request of its
// plan in order, one at a time. It returns the latencies, the number of
// responses that failed the gate, and the number of 304 responses.
func (s *serveMix) client1(t tracer, plan []request) (lat []time.Duration, failed int, notMod uint64, err error) {
	lat = make([]time.Duration, 0, len(plan))
	for _, r := range plan {
		rt := t
		if t.rec != nil {
			rt = tracer{rec: t.rec, run: s.reqRun.Add(1)}.begin("bench.request")
		}
		t0 := time.Now()
		err := s.do(rt, r)
		lat = append(lat, time.Since(t0))
		rt.end()
		switch {
		case errors.Is(err, errGate):
			fmt.Fprintln(os.Stderr, err)
			failed++
		case err != nil:
			return lat, failed, notMod, err
		case r.status == http.StatusNotModified:
			notMod++
		}
	}
	return lat, failed, notMod, nil
}

func (s *serveMix) summary() map[string]any { return map[string]any{"digest": s.dig} }

// layers reports the handler latency and cache-tier counters of the
// traced pass, then times the store alone on the same artifacts.
func (s *serveMix) layers(t tracer, m metricSet) error {
	var handler []time.Duration
	for _, sp := range t.rec.snapshot() {
		if sp.Name == "serve.Server.ServeHTTP" && sp.Run >= s.last.runs[0] && sp.Run < s.last.runs[1] {
			handler = append(handler, sp.dur())
		}
	}
	m.set("serve.handler_p50_us", "us", percentile(handler, 0.50)*1e3)
	m.set("serve.handler_p99_us", "us", percentile(handler, 0.99)*1e3)
	m.set("serve.lru_hits", "count", float64(s.last.stats.Hits))
	m.set("serve.lru_misses", "count", float64(s.last.stats.Misses))
	m.set("serve.lru_evictions", "count", float64(s.last.stats.Evictions))
	m.set("serve.not_modified", "count", float64(s.last.notMod))
	m.set("serve.computes", "count", float64(s.last.computes))
	m.set("serve.sheds", "count", float64(s.last.sheds))

	digest := experiments.Digest(tinyParams(s.c.seed))
	var reads []time.Duration
	for round := 0; round < 3; round++ {
		for _, id := range experiments.Names() {
			for _, f := range formats {
				st := t.begin("artifact.Store.ReadFormat")
				t0 := time.Now()
				_, _, err := s.store.ReadFormat(id, digest, f)
				reads = append(reads, time.Since(t0))
				st.end()
				if err != nil {
					return err
				}
			}
		}
	}
	m.set("artifact.store_read_us", "us", percentile(reads, 0.50)*1e3)

	dir, err := os.MkdirTemp(s.c.scratch, "put-")
	if err != nil {
		return fmt.Errorf("serve-mix: %w", err)
	}
	store, err := artifact.NewStore(dir)
	if err != nil {
		return err
	}
	var puts []time.Duration
	for _, a := range s.c.serveRef.arts {
		st := t.begin("artifact.Store.Put")
		t0 := time.Now()
		_, err := store.Put(a)
		puts = append(puts, time.Since(t0))
		st.end()
		if err != nil {
			return err
		}
	}
	m.set("artifact.store_put_ms", "ms", percentile(puts, 0.50))
	return os.RemoveAll(dir)
}

// close stops the HTTP server, the compute workers and the client
// pool, and removes the store.
func (s *serveMix) close() error {
	var err error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.hs.Shutdown(ctx)
		cancel()
		s.wg.Wait()
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// tracedHandler records a span around Server.ServeHTTP, parented to the
// client's request span.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := tracer{rec: h.rec, run: headerInt(r, hdrRun), parent: headerInt(r, hdrParent)}.begin("serve.Server.ServeHTTP")
	h.next.ServeHTTP(w, r)
	st.end()
}

// headerInt parses a tracing header; an absent or malformed one reads
// as 0, which files the span at the root.
func headerInt(r *http.Request, name string) int64 {
	v, err := strconv.ParseInt(r.Header.Get(name), 10, 64)
	if err != nil {
		return 0
	}
	return v
}
