package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/api"
)

// stream renders the first n operations of a workload's stream as bytes.
func stream(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := 0; i < n; i++ {
		if err := enc.Encode(g.take()); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// The program receives only generated inputs, so a change can be
// re-checked on a seed nobody used while writing it: the same seed must
// give a byte-identical stream and another seed a different one.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(t, w, 7, 500), stream(t, w, 7, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w)
		}
		if c := stream(t, w, 8, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
}

// requestKeys returns the store key of every single request in ops.
func requestKeys(t *testing.T, ops []op) []string {
	t.Helper()
	var keys []string
	for _, o := range ops {
		if o.Body == nil || o.Kind == kindBatch {
			continue
		}
		var q api.Request
		if err := decodeStrict(o.Body, &q); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, q.CacheKey(o.Kind))
	}
	return keys
}

// serve-miss and coord-sweep must never repeat a request, and the set-up
// warm-up stream must never produce a key of the measured stream: either
// would turn a measured miss into a store hit.
func TestMissStreamsAreUnique(t *testing.T) {
	for _, w := range []string{"serve-miss", "coord-sweep"} {
		g, err := newGenerator(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		wg, err := warmupGenerator(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		var ops []op
		for i := 0; i < 3000; i++ {
			ops = append(ops, g.take())
		}
		for i := 0; i < 40; i++ {
			ops = append(ops, wg.take())
		}
		seen := map[string]bool{}
		for _, k := range requestKeys(t, ops) {
			if seen[k] {
				t.Fatalf("%s: key %s repeats", w, k)
			}
			seen[k] = true
		}
	}
}

// serve-hot hits target the warm set and misses never do.
func TestHotStreamHitsWarmSet(t *testing.T) {
	g, err := newGenerator("serve-hot", 5)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for _, q := range g.keys {
		warm[q.CacheKey(kindVerify)] = true
	}
	if len(warm) != hotKeys {
		t.Fatalf("warm set has %d distinct keys, want %d", len(warm), hotKeys)
	}
	lookups, hits := 0, 0
	for i := 0; i < 4400; i++ {
		o := g.take()
		var items []api.Request
		if o.Kind == kindBatch {
			var b api.BatchRequest
			if err := decodeStrict(o.Body, &b); err != nil {
				t.Fatal(err)
			}
			items = b.Items
		} else {
			var q api.Request
			if err := decodeStrict(o.Body, &q); err != nil {
				t.Fatal(err)
			}
			items = []api.Request{q}
			if o.Hit != warm[q.CacheKey(kindVerify)] {
				t.Fatalf("op %d: hit flag %t disagrees with the warm set", o.ID, o.Hit)
			}
		}
		for _, it := range items {
			lookups++
			if warm[it.CacheKey(kindVerify)] {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(lookups); frac < 0.94 || frac > 0.98 {
		t.Fatalf("hit fraction %.3f, want about 0.95", frac)
	}
}
