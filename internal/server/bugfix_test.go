package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// plugQueue occupies every worker (and optionally queue slots) with jobs
// that block until the returned release func is called.
func plugQueue(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	for i := 0; i < n; i++ {
		j := &job{ctx: context.Background(), done: make(chan jobResult, 1), run: func(context.Context) ([]byte, error) {
			<-block
			return []byte("{}"), nil
		}}
		if err := s.enqueue(j); err != nil {
			t.Fatalf("plug %d: %v", i, err)
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(block) }) }
}

// TestValidationOverflowM is the regression for the requestLinks overflow:
// a huge m used to signed-overflow q.N+q.M (and then the product) past the
// links cap and reach topology construction on a worker. Every overflow
// shape must be a 400 mentioning the links cap, with no job run.
func TestValidationOverflowM(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		q    api.Request
	}{
		// n+m wraps negative; r·(n+m) double-wraps back to a small positive
		// value the old `v >= 0 && v <= max` guard accepted.
		{"m maxint double wrap", api.Request{N: 2, M: math.MaxInt, R: 2, Routing: "dest-mod"}},
		{"m 2^62", api.Request{N: 2, M: 1 << 62, R: 3, Routing: "dest-mod"}},
		{"m just past cap", api.Request{N: 2, M: 1<<22 + 1, R: 1, Routing: "dest-mod"}},
		{"r times sum past cap", api.Request{N: 2, M: 1 << 20, R: 1 << 10, Routing: "dest-mod"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			resp, body := postJSON(t, ts.URL+"/v1/verify", &q)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "links") {
				t.Fatalf("error %s does not mention the links cap", body)
			}
		})
	}
	if m := getMetrics(t, ts.URL); m.JobsRun != 0 {
		t.Fatalf("overflow request ran %d jobs", m.JobsRun)
	}

	// The estimate saturates rather than rejecting legal sizes: a request
	// just under every cap still validates.
	q := api.Request{N: 2, M: 4, R: 3, Routing: "paper", Mode: "random", Trials: 2}
	if resp, body := postJSON(t, ts.URL+"/v1/verify", &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("legal request rejected: %d %s", resp.StatusCode, body)
	}
}

// TestQueuedDeadline504 is the regression for the blocking wait: a request
// whose deadline passes while its job is still queued must receive its 504
// immediately, not after every job ahead of it completes.
func TestQueuedDeadline504(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := plugQueue(t, s, 1) // park the only worker
	defer release()

	q := &api.Request{N: 2, M: 4, R: 2, Routing: "paper", TimeoutMs: 60}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/verify", q)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// The old code waited for the worker to dequeue — which here means
	// forever. Any bound well under the plug duration proves the fix; 5s
	// allows arbitrary CI scheduling noise.
	if elapsed > 5*time.Second {
		t.Fatalf("504 took %v; handler waited for the queue to drain", elapsed)
	}

	// The worker later drains the abandoned job without blocking on the
	// handback, and the queue gauge returns to zero.
	release()
	deadline := time.Now().Add(2 * time.Second)
	for getMetrics(t, ts.URL).QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue_depth stuck at %d", getMetrics(t, ts.URL).QueueDepth)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchQueuedDeadline504 is the same regression for the batch path: a
// batch whose deadline expires while its groups are queued answers each
// queued item 504 promptly instead of serializing behind the plug.
func TestBatchQueuedDeadline504(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := plugQueue(t, s, 1)
	defer release()

	batch := api.BatchRequest{
		Items: []api.Request{
			{N: 2, M: 4, R: 2, Routing: "paper"},
			{N: 2, M: 4, R: 3, Routing: "paper"},
		},
		TimeoutMs: 60,
	}
	start := time.Now()
	resp, body := postBatch(t, ts.URL, &batch)
	if time.Since(start) > 5*time.Second {
		t.Fatal("batch handler waited for the queue to drain")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var rep api.BatchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	for i, it := range rep.Items {
		if it.Status != http.StatusGatewayTimeout {
			t.Fatalf("item %d: status %d, want 504", i, it.Status)
		}
	}
}

// TestEnqueueCloseRace hammers enqueue from many goroutines while Close
// runs. Before the closed-flag fix this panicked on send-to-closed-channel;
// now racing enqueues get errServerClosing (a 503 at the HTTP layer) and
// accepted jobs still drain. Run under -race this is also the memory-model
// gate for the closeMu protocol.
func TestEnqueueCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(Config{Workers: 2, QueueDepth: 4})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					j := &job{ctx: context.Background(), done: make(chan jobResult, 1), run: func(context.Context) ([]byte, error) {
						return []byte("{}"), nil
					}}
					if err := s.enqueue(j); err == errServerClosing {
						return
					}
				}
			}()
		}
		close(start)
		s.Close()
		wg.Wait()
		// After Close returns, every further enqueue is a clean 503.
		j := &job{ctx: context.Background(), done: make(chan jobResult, 1)}
		if err := s.enqueue(j); err != errServerClosing {
			t.Fatalf("enqueue after Close: %v", err)
		}
	}
}

// TestSweepRegistryBounded: the job registry keeps at most CacheEntries
// finished sweeps, evicting the oldest first, so a long-running server
// holds bounded job state. The newest jobs still answer; an evicted ID
// answers 404 with a hint to re-POST for the stored result.
func TestSweepRegistryBounded(t *testing.T) {
	const bound = 3
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: bound})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 2*bound+1; i++ {
		q := api.Request{N: 2, M: 4, R: 2, Routing: "paper", NoCache: true}
		acc := postSweep(t, ts.URL, &q)
		if st := waitSweep(t, ts.URL, acc.JobID); st.State != "done" {
			t.Fatalf("sweep %s: state %q (%s)", acc.JobID, st.State, st.Error)
		}
		ids = append(ids, acc.JobID)
	}
	s.sweepWg.Wait() // every runner has pruned on its way out
	s.sweepMu.Lock()
	held, ordered := len(s.sweeps), len(s.sweepOrder)
	s.sweepMu.Unlock()
	if held != bound || ordered != bound {
		t.Fatalf("registry holds %d jobs (%d ordered) after %d sweeps, want %d", held, ordered, len(ids), bound)
	}
	for _, id := range ids[len(ids)-bound:] {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("newest job %s: status %d", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var er api.ErrorReport
	err = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(er.Error, "re-POST") {
		t.Fatalf("evicted job %s: status %d, error %q", ids[0], resp.StatusCode, er.Error)
	}
}
