package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/store"
)

// TestSymVerifyParity: /v1/verify with sym_reduce produces a body
// byte-identical to the plain engine's — across modes, first_blocked, an
// equivariant multipath routing, and a routing that forces the fallback —
// and the two share one cache entry (sym_reduce is an execution control,
// not part of the canonical key).
func TestSymVerifyParity(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 32})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []api.Request{
		{N: 2, M: 3, R: 3, Routing: "spray", Mode: "exhaustive"},
		{N: 2, M: 3, R: 3, Routing: "spray", Mode: "exhaustive", FirstBlocked: true},
		{N: 2, M: 3, R: 3, Routing: "spray", Mode: "exhaustive-parallel"},
		// Seeded random routing fails the equivariance certificate: the
		// engine falls back to the full sweep, still byte-identically.
		{N: 2, M: 2, R: 4, Routing: "random-fixed", Mode: "exhaustive"},
	}
	for _, base := range cases {
		plain := base
		plain.NoCache = true
		resp, wantBody := postJSON(t, ts.URL+"/v1/verify", &plain)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plain verify: %d %s", resp.StatusCode, wantBody)
		}

		sq := base
		sq.SymReduce = true
		resp, got := postJSON(t, ts.URL+"/v1/verify", &sq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sym verify: %d %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, wantBody) {
			t.Fatalf("sym body differs from plain engine:\n got %s\nwant %s", got, wantBody)
		}
		if c := resp.Header.Get("X-Nbserve-Cache"); c != "miss" {
			t.Fatalf("first sym verify cache=%s", c)
		}

		// The sym run's cached result serves the equivalent full request.
		resp, got = postJSON(t, ts.URL+"/v1/verify", &base)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Nbserve-Cache") != "hit" {
			t.Fatalf("full verify after sym: %d cache=%s", resp.StatusCode, resp.Header.Get("X-Nbserve-Cache"))
		}
		if !bytes.Equal(got, wantBody) {
			t.Fatalf("cached body differs:\n got %s\nwant %s", got, wantBody)
		}
	}
}

// TestSymValidation pins the request-shape rules for the new fields.
func TestSymValidation(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		path string
		q    api.Request
	}{
		{"sym_reduce random", "/v1/verify", api.Request{Mode: "random", SymReduce: true}},
		{"sym_reduce exact", "/v1/verify", api.Request{N: 2, M: 4, R: 4, Routing: "paper", Mode: "exact", SymReduce: true}},
		{"sym_shard on verify", "/v1/verify", api.Request{SymShard: []int{0, 1}, SymReduce: true}},
		{"sym_shard without sym_reduce", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymShard: []int{0, 1}}},
		{"sym_reduce without sym_shard", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true}},
		{"sym_shard with shard_prefix", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{0, 1}, ShardPrefix: []int{0}}},
		{"sym_shard wrong shape", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{0, 1, 2}}},
		{"sym_shard empty range", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{3, 3}}},
		{"sym_shard negative", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{-1, 2}}},
		// Ranges past the orbit enumeration's necklace alphabet: refused by
		// the engine, not clamped to an empty or a full sweep.
		{"sym_shard past the end", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{1000000, 2000000}}},
		{"sym_shard straddling the end", "/v1/verify/shard", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{0, 1000000}}},
		{"sym_shard over max_exhaustive", "/v1/verify/shard", api.Request{N: 3, M: 3, R: 4, Routing: "spray", SymReduce: true, SymShard: []int{0, 1}}},
		{"sym_reduce on sim", "/v1/sim", api.Request{SymReduce: true}},
		{"sym_reduce on worstcase", "/v1/worstcase", api.Request{SymReduce: true}},
		{"sym_shard on sim", "/v1/sim", api.Request{SymShard: []int{0, 1}}},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, &tc.q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
}

// TestSymShardEndpoint sweeps every sym shard of a 6-host spray fabric
// through /v1/verify/shard and checks the merged counters equal the full
// verify's, shard IDs use the "sym.lo.hi" form, and an inapplicable
// router is a fatal 400, not a silent fallback.
func TestSymShardEndpoint(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 32})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	full := api.Request{N: 2, M: 3, R: 3, Routing: "spray", Mode: "exhaustive-parallel", NoCache: true}
	resp, body := postJSON(t, ts.URL+"/v1/verify", &full)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full verify: %d %s", resp.StatusCode, body)
	}
	var want api.VerifyReport
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	sym, err := permutation.NewBlockSymmetry(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tested, blocked, maxLoad int
	for _, rg := range sym.Shards(2) {
		q := api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true, SymShard: []int{rg[0], rg[1]}}
		resp, body := postJSON(t, ts.URL+"/v1/verify/shard", &q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sym shard %v: %d %s", rg, resp.StatusCode, body)
		}
		var rep api.ShardReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if want := api.SymShardID(rg[0], rg[1]); rep.Shard != want {
			t.Fatalf("shard id %q, want %q", rep.Shard, want)
		}
		if rep.RouteErr != "" {
			t.Fatalf("sym shard %v reported route error %q", rg, rep.RouteErr)
		}
		tested += rep.Tested
		blocked += rep.Blocked
		if rep.MaxLinkLoad > maxLoad {
			maxLoad = rep.MaxLinkLoad
		}
	}
	if tested != want.Tested || blocked != want.Blocked || maxLoad != want.MaxLinkLoad {
		t.Fatalf("merged sym shards (%d,%d,%d) != full verify (%d,%d,%d)",
			tested, blocked, maxLoad, want.Tested, want.Blocked, want.MaxLinkLoad)
	}

	bad := api.Request{N: 2, M: 2, R: 4, Routing: "random-fixed", SymReduce: true, SymShard: []int{0, 1}}
	resp, body = postJSON(t, ts.URL+"/v1/verify/shard", &bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inapplicable sym shard: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not applicable") {
		t.Fatalf("inapplicable sym shard error %s", body)
	}
}

// TestCoordinatedSymSweep: a sym_reduce sweep fanned across two workers
// merges to a body byte-identical to the single-process full engine, both
// where the reduction applies (orbit-range shards, witness re-derived)
// and where planning falls back to the prefix partition (non-equivariant
// routing), with the matching sym_sweeps / sym_fallbacks counters.
func TestCoordinatedSymSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	wa, wb := newWorkerServer(t), newWorkerServer(t)

	for _, tc := range []struct {
		name    string
		q       api.Request
		wantSym bool
	}{
		{"spray n6 sym", api.Request{N: 2, M: 3, R: 3, Routing: "spray", SymReduce: true}, true},
		{"spray n8 sym", api.Request{N: 2, M: 2, R: 4, Routing: "spray", SymReduce: true}, true},
		{"random-fixed fallback", api.Request{N: 2, M: 2, R: 4, Routing: "random-fixed", SymReduce: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.q
			ref.SymReduce = false
			want := localVerifyBody(t, ref)

			_, ts := newCoordinator(t, &CoordinatorConfig{
				Workers:          []string{wa.URL, wb.URL},
				ShardConcurrency: 2,
			}, nil)
			q := tc.q
			acc := postSweep(t, ts.URL, &q)
			st := waitSweep(t, ts.URL, acc.JobID)
			if st.State != "done" {
				t.Fatalf("sweep state %s: %s", st.State, st.Error)
			}
			if got := string(st.Result); got != want {
				t.Fatalf("coordinated sym result differs from local engine:\n got %s\nwant %s", got, want)
			}
			m := getMetrics(t, ts.URL)
			if tc.wantSym && m.SymSweeps == 0 {
				t.Fatal("sym sweep ran without bumping sym_sweeps")
			}
			if !tc.wantSym && m.SymFallbacks == 0 {
				t.Fatal("fallback sweep ran without bumping sym_fallbacks")
			}

			// The sym sweep fills the shared verify cache: the equivalent
			// non-sym verify is a hit with the identical body.
			q2 := ref
			q2.Mode = "exhaustive-parallel"
			resp, body := postJSON(t, ts.URL+"/v1/verify", &q2)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Nbserve-Cache") != "hit" {
				t.Fatalf("verify after sym sweep: %d cache=%s", resp.StatusCode, resp.Header.Get("X-Nbserve-Cache"))
			}
			if got := strings.TrimSuffix(string(body), "\n"); got != want {
				t.Fatalf("verify served %s, sym sweep computed %s", got, want)
			}
		})
	}
}

// TestCoordinatedSymSweepResume proves checkpoint resume for orbit-range
// shards: a first coordinator whose worker fails every sym shard past the
// second checkpoints two "sym.lo.hi" entries, then fails the sweep; a
// second coordinator over the same store resumes exactly those two and
// finishes byte-identically to the local full engine.
func TestCoordinatedSymSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	shared := store.NewMemory(1024)

	sym, err := permutation.NewBlockSymmetry(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One worker × one slot plans sym.Shards(1); crash every shard from
	// the third onward.
	shards := sym.Shards(1)
	if len(shards) < 3 {
		t.Fatalf("need >= 3 sym shards for the crash plan, have %d", len(shards))
	}
	crashLo := shards[2][0]

	worker := New(Config{Workers: 4, QueueDepth: 64})
	t.Cleanup(worker.Close)
	handler := worker.Handler()
	partial := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var sq api.Request
		if json.Unmarshal(body, &sq) == nil && len(sq.SymShard) == 2 && sq.SymShard[0] >= crashLo {
			http.Error(w, "injected crash", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(partial.Close)

	q := api.Request{N: 2, M: 2, R: 4, Routing: "spray", SymReduce: true}
	ref := q
	ref.SymReduce = false
	want := localVerifyBody(t, ref)

	_, ts1 := newCoordinator(t, &CoordinatorConfig{
		Workers:          []string{partial.URL},
		ShardConcurrency: 1,
		ShardRetries:     1,
	}, shared)
	q1 := q
	acc1 := postSweep(t, ts1.URL, &q1)
	if acc1.Shards != len(shards) {
		t.Fatalf("planned %d shards, want %d orbit ranges", acc1.Shards, len(shards))
	}
	if acc1.Resumed != 0 {
		t.Fatalf("fresh sym sweep resumed %d shards", acc1.Resumed)
	}
	st1 := waitSweep(t, ts1.URL, acc1.JobID)
	if st1.State != "failed" {
		t.Fatalf("partial sym sweep state %s, want failed", st1.State)
	}
	if st1.ShardsDone != 2 {
		t.Fatalf("partial sym sweep completed %d shards, want 2", st1.ShardsDone)
	}

	_, ts2 := newCoordinator(t, &CoordinatorConfig{
		Workers:          []string{newWorkerServer(t).URL},
		ShardConcurrency: 1,
	}, shared)
	q2 := q
	acc2 := postSweep(t, ts2.URL, &q2)
	if acc2.Resumed != 2 {
		t.Fatalf("resumed %d sym shards, want 2", acc2.Resumed)
	}
	st2 := waitSweep(t, ts2.URL, acc2.JobID)
	if st2.State != "done" {
		t.Fatalf("resumed sym sweep state %s: %s", st2.State, st2.Error)
	}
	if got := string(st2.Result); got != want {
		t.Fatalf("resumed sym result differs:\n got %s\nwant %s", got, want)
	}
	snap := getMetrics(t, ts2.URL)
	if snap.ShardsResumed != 2 {
		t.Fatalf("shards_resumed = %d, want 2", snap.ShardsResumed)
	}
	if snap.SymSweeps == 0 {
		t.Fatal("resumed sym sweep did not bump sym_sweeps")
	}
}

// TestSymLocalSweepProgress drives a local (no workers) sym_reduce sweep
// through the job endpoints: the final body matches the plain engine and
// the progress counters land exactly on the full pattern count.
func TestSymLocalSweepProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	q := api.Request{N: 2, M: 3, R: 3, Routing: "spray"}
	want := localVerifyBody(t, q)

	s := New(Config{Workers: 4, QueueDepth: 16})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sq := q
	sq.SymReduce = true
	acc := postSweep(t, ts.URL, &sq)
	if acc.Workers != 0 {
		t.Fatalf("local sweep accepted with %d workers", acc.Workers)
	}
	st := waitSweep(t, ts.URL, acc.JobID)
	if st.State != "done" {
		t.Fatalf("sweep state %s: %s", st.State, st.Error)
	}
	if got := string(st.Result); got != want {
		t.Fatalf("local sym sweep differs:\n got %s\nwant %s", got, want)
	}
	var rep api.VerifyReport
	if err := json.Unmarshal(st.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if st.Tested != int64(rep.Tested) || st.Blocked != int64(rep.Blocked) {
		t.Fatalf("progress counters (%d,%d) != report (%d,%d)", st.Tested, st.Blocked, rep.Tested, rep.Blocked)
	}
	if m := getMetrics(t, ts.URL); m.SymSweeps == 0 {
		t.Fatal("local sym sweep did not bump sym_sweeps")
	}
}
