package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
)

// liveServer is an nbserve instance listening on 127.0.0.1 inside the
// benchmark process.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := server.New(cfg)
	ls := &liveServer{srv: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return ls, nil
}

// close shuts the listener down, waits for in-flight handlers and the
// serve goroutine, then drains the server's workers and closes its store.
func (l *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l.hs.Shutdown(ctx)
	<-l.done
	l.srv.Close()
}

// client is a closed-loop HTTP client holding at most one connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status, the X-Nbserve-Cache header
// and the body without its trailing newline.
func (c *client) do(method, url string, body []byte) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Nbserve-Cache"), bytes.TrimSuffix(b, []byte("\n")), nil
}

func (c *client) metrics(base string) (*server.MetricsSnapshot, error) {
	status, _, b, err := c.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	var m server.MetricsSnapshot
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

// sample is one completed operation of a closed loop.
type sample struct {
	op    op
	ms    float64
	ok    bool   // 2xx with a body
	cache string // X-Nbserve-Cache of single serve requests
	body  []byte // the answer, kept until it is checked
	err   error  // transport or status failure, or a wrong answer
	wrong bool
	done  time.Time // when the operation returned
}

// closedLoop runs one caller that sends its next operation only after
// the previous one returns, until the deadline passes or, with
// maxOps > 0, until maxOps operations have run. Samples come back in
// stream order.
func closedLoop(deadline time.Time, maxOps int, gen *generator, do func(o op) sample) []sample {
	var samples []sample
	for (maxOps > 0 && len(samples) < maxOps) || (maxOps == 0 && time.Now().Before(deadline)) {
		s := do(gen.take())
		s.done = time.Now()
		samples = append(samples, s)
	}
	return samples
}

// checkAll runs check on every sample with two goroutines and records
// wrong answers on the samples.
func checkAll(samples []sample, check func(s *sample) error) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := &samples[i]
				if err := check(s); err != nil {
					s.err, s.wrong, s.ok = err, true, false
				}
			}
		}()
	}
	for i := range samples {
		if samples[i].ok {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}

// tally counts attempted, failed and wrong operations into res.
func tally(res *result, samples []sample) {
	res.attempted += len(samples)
	noted := 0
	for i := range samples {
		s := &samples[i]
		if s.ok {
			continue
		}
		res.failed++
		if s.wrong {
			res.wrongAnswer(s.err)
		} else if noted < 3 && s.err != nil {
			res.note("failed op %d (%s): %v", s.op.ID, s.op.Kind, s.err)
			noted++
		}
	}
}

// latencies returns the latencies of samples passing keep, with failed
// operations as +Inf.
func latencies(samples []sample, keep func(*sample) bool) []float64 {
	var xs []float64
	for i := range samples {
		s := &samples[i]
		if keep != nil && !keep(s) {
			continue
		}
		if s.ok {
			xs = append(xs, s.ms)
		} else {
			xs = append(xs, math.Inf(1))
		}
	}
	return xs
}

// mark is a reading of the process clocks at one instant of a window.
type mark struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64 // cumulative heap bytes allocated
}

func readMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{t: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// measure runs the closed loop for span (or, with maxOps > 0, for maxOps
// operations) and reads the process clocks at its start, at slices-1
// evenly spaced instants and at its end, so the window can be summarized
// slice by slice.
func measure(span time.Duration, maxOps, slices int, gen *generator, do func(o op) sample) ([]sample, []mark) {
	start := readMark()
	stop := make(chan struct{})
	var inner []mark
	var wg sync.WaitGroup
	if slices > 1 && maxOps == 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k < slices; k++ {
				at := start.t.Add(span * time.Duration(k) / time.Duration(slices))
				select {
				case <-time.After(time.Until(at)):
					inner = append(inner, readMark())
				case <-stop:
					return
				}
			}
		}()
	}
	samples := closedLoop(start.t.Add(span), maxOps, gen, do)
	close(stop)
	wg.Wait()
	marks := append([]mark{start}, inner...)
	return samples, append(marks, readMark())
}

// measureRounds runs one caller over whole rounds of roundLen operations
// until the round in progress when span ends is done (or, with maxOps > 0,
// for maxOps operations), reading the process clocks at every round
// boundary. Every round holds the same mix of jobs, so each round is a
// slice of the window whose metrics are comparable with any other's.
func measureRounds(span time.Duration, maxOps, roundLen int, gen *generator, do func(o op) sample) ([]sample, []mark) {
	marks := []mark{readMark()}
	deadline := marks[0].t.Add(span)
	var samples []sample
	for {
		if maxOps > 0 && len(samples) >= maxOps ||
			maxOps == 0 && len(samples)%roundLen == 0 && !time.Now().Before(deadline) {
			break
		}
		s := do(gen.take())
		s.done = time.Now()
		samples = append(samples, s)
		if len(samples)%roundLen == 0 {
			marks = append(marks, readMark())
		}
	}
	if len(samples)%roundLen != 0 {
		marks = append(marks, readMark())
	}
	return samples, marks
}

// byTime assigns each sample to the slice of the window it returned in.
func byTime(samples []sample, marks []mark) [][]sample {
	slices := len(marks) - 1
	out := make([][]sample, slices)
	for _, s := range samples {
		i := 0
		for i < slices-1 && !s.done.Before(marks[i+1].t) {
			i++
		}
		out[i] = append(out[i], s)
	}
	return out
}

// byRound cuts samples, in stream order, into slices of roundLen.
func byRound(samples []sample, roundLen int) [][]sample {
	var out [][]sample
	for len(samples) > 0 {
		k := min(roundLen, len(samples))
		out = append(out, samples[:k])
		samples = samples[k:]
	}
	return out
}

// summarize sets the end-to-end metrics of one measured window cut into
// slices; marks[i] and marks[i+1] bound slice i. Each metric is computed
// per slice and the median over slices is reported, so a stall of the
// machine during part of a run moves the result less. what names the
// kind of slice in the output.
func summarize(res *result, bySlice [][]sample, marks []mark, what string) {
	n := 0
	for _, in := range bySlice {
		n += len(in)
	}
	if n == 0 {
		return
	}
	slices := len(bySlice)
	pcts := []struct {
		name string
		q    float64
	}{{"p50_ms", 0.50}, {"p90_ms", 0.90}, {"p99_ms", 0.99}}
	per := map[string][]float64{}
	smallest := n
	for i, in := range bySlice {
		if len(in) == 0 {
			continue
		}
		smallest = min(smallest, len(in))
		ok := 0
		for _, s := range in {
			if s.ok {
				ok++
			}
		}
		a, b := marks[i], marks[i+1]
		per["ops_per_s"] = append(per["ops_per_s"], float64(ok)/b.t.Sub(a.t).Seconds())
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], float64(b.cpu-a.cpu)/1e6/float64(len(in)))
		per["alloc_mb_per_op"] = append(per["alloc_mb_per_op"], float64(b.alloc-a.alloc)/(1<<20)/float64(len(in)))
		xs := latencies(in, nil)
		for _, p := range pcts {
			per[p.name] = append(per[p.name], percentile(xs, p.q))
		}
	}
	for name, vs := range per {
		res.set(name, median(vs), n)
	}
	if slices > 1 {
		res.note("end-to-end metrics: median over %d %s of the window (smallest slice %d operations)", slices, what, smallest)
	}
	for _, p := range pcts {
		if beyond := smallest - int(math.Ceil(p.q*float64(smallest))); beyond < 10 {
			res.note("%s: only %d of %d samples lie beyond it; read it as a bound on the heaviest operations, not a tail estimate", p.name, beyond, smallest)
		}
	}
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// timeSetup runs setup reps times and returns the median duration in
// seconds; every set-up but the last is torn down again.
func timeSetup(reps int, setup func() error, teardown func()) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	return median(ds), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// decodeStrict decodes a request body the way the handlers do: unknown
// fields are an error.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
