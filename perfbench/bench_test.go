package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tdcache"
)

// repoRoot is the repository checkout the benchmark's directory sits in.
const repoRoot = ".."

// TestReproGateRejectsCorruptGolden runs the repro-quick gate on one
// cheap experiment against a copy of the goldens: the intact copy
// passes, and a single flipped byte fails the pass.
func TestReproGateRejectsCorruptGolden(t *testing.T) {
	const id = "tab1"
	want, err := os.ReadFile(filepath.Join(repoRoot, goldenDir, id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := &config{seed: tdcache.QuickExperimentParams().Seed, workers: 1, root: repoRoot}
	run := func() int {
		t.Helper()
		g, err := readGoldens(dir, []string{id})
		if err != nil {
			t.Fatal(err)
		}
		r := &repro{c: c, ids: []string{id}, golden: g}
		var lat []time.Duration
		failed, err := r.pass(tracer{}, &lat)
		if err != nil {
			t.Fatal(err)
		}
		return failed
	}
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run(); got != 0 {
		t.Fatalf("intact golden: %d failures, want 0", got)
	}
	bad := append([]byte(nil), want...)
	bad[len(bad)/2] ^= 1
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run(); got != 1 {
		t.Fatalf("corrupt golden: %d failures, want 1", got)
	}
}

// TestServeGateRejectsWrongBody sends planned requests to a stand-in
// server: the expected body passes, and a wrong body or status fails
// with errGate.
func TestServeGateRejectsWrongBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/right":
			w.Header().Set("ETag", `"e"`)
			_, _ = w.Write([]byte("artifact body"))
		case "/wrong":
			w.Header().Set("ETag", `"e"`)
			_, _ = w.Write([]byte("artifact bodY"))
		default:
			w.WriteHeader(http.StatusNotModified)
		}
	}))
	defer ts.Close()
	s := &serveMix{base: ts.URL, client: ts.Client()}
	sum := hashBytes([]byte("artifact body"))
	for _, tc := range []struct {
		req  request
		fail bool
	}{
		{request{path: "/right", status: http.StatusOK, sum: sum, wantETag: `"e"`}, false},
		{request{path: "/wrong", status: http.StatusOK, sum: sum, wantETag: `"e"`}, true},
		{request{path: "/right", status: http.StatusOK, sum: sum, wantETag: `"f"`}, true},
		{request{path: "/other", status: http.StatusNotModified}, false},
		{request{path: "/other", status: http.StatusOK, sum: sum}, true},
	} {
		err := s.do(tracer{}, tc.req)
		if tc.fail != errors.Is(err, errGate) || (!tc.fail && err != nil) {
			t.Errorf("%+v: err = %v, want gate failure %v", tc.req, err, tc.fail)
		}
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child running past its parent's
// end is clipped, and a grandchild reduces only its own parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep.Pool.Run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sweep.job/w0", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sweep.job/w1", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "cpu.System.Run/gzip", Start: 80, End: 120},
		{ID: 5, Parent: 2, Name: "core.New", Start: 15, End: 20},
	}
	want := map[int64]time.Duration{1: 30, 2: 25, 3: 30, 4: 40, 5: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	layers := layerSelf(spans)
	for l, w := range map[string]time.Duration{"sweep": 85, "cpu": 40, "core": 5} {
		if layers[l] != w {
			t.Errorf("layer %s: self %d, want %d", l, layers[l], w)
		}
	}
}
