package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/kws"
)

// ringKeysOf lists the primary keys a batch touches.
func ringKeysOf(r ring, i int) []string {
	var keys []string
	for _, op := range r.batch(i) {
		row := op.Key
		if op.Op == "insert" {
			row = op.Row
		}
		keys = append(keys, row[r.keyColumn()].(string))
	}
	return keys
}

func TestRingBatchesHaveDisjointKeys(t *testing.T) {
	for _, s := range specs {
		r := ring{docs: s.db == "docs", fanIn: 2 * s.scale, vocab: []string{"a", "b", "c"}}
		// Live keys: inserted and not yet deleted.
		live := make(map[string]bool)
		for i := 0; i < 3*ringKeys; i++ {
			ops := r.batch(i)
			if i >= ringPriming && len(ops) != 3 {
				t.Fatalf("%s batch %d has %d ops, want insert+update+delete", s.name, i, len(ops))
			}
			keys := ringKeysOf(r, i)
			seen := make(map[string]bool)
			for _, k := range keys {
				if seen[k] {
					t.Fatalf("%s batch %d touches key %s twice: its net delta could cancel", s.name, i, k)
				}
				seen[k] = true
			}
			// Two connections may have batches i and i+1 in flight at once.
			for _, k := range ringKeysOf(r, i+1) {
				if seen[k] {
					t.Fatalf("%s batches %d and %d share key %s", s.name, i, i+1, k)
				}
			}
			for j, op := range ops {
				switch op.Op {
				case "insert":
					if live[keys[j]] {
						t.Fatalf("%s batch %d re-inserts live key %s", s.name, i, keys[j])
					}
					live[keys[j]] = true
				case "update":
					if !live[keys[j]] {
						t.Fatalf("%s batch %d updates missing key %s", s.name, i, keys[j])
					}
				case "delete":
					if !live[keys[j]] {
						t.Fatalf("%s batch %d deletes missing key %s", s.name, i, keys[j])
					}
					delete(live, keys[j])
				}
			}
			if i >= ringPriming && len(live) != ringDelete {
				t.Fatalf("%s: %d live ring rows after batch %d, want %d", s.name, len(live), i, ringDelete)
			}
		}
	}
}

// applyRing applies batches in the given order to a fresh small engine and
// returns it.
func applyRing(t *testing.T, s spec, order []int) (*kws.Engine, ring) {
	t.Helper()
	s.scale = 1
	tw, err := newTwin(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		m, err := mutation(tw.ring.batch(i))
		if err != nil {
			t.Fatal(err)
		}
		before := tw.engine.Generation()
		after, err := tw.engine.Apply(context.Background(), m)
		if err != nil {
			t.Fatalf("%s batch %d: %v", s.name, i, err)
		}
		if after != before+1 {
			t.Fatalf("%s batch %d did not publish a generation", s.name, i)
		}
	}
	return tw.engine, tw.ring
}

// Two writers may commit batches i and i+1 in either order; both orders
// must reach the same data, and every batch must change what a search sees.
func TestRingIsOrderIndependentUnderTwoWriters(t *testing.T) {
	for _, name := range []string{"hot-read", "live-mixed"} {
		s, _ := specByName(name)
		n := 2 * ringKeys
		inOrder, swapped := make([]int, n), make([]int, n)
		for i := range inOrder {
			inOrder[i] = i
			swapped[i] = i ^ 1 // 1,0,3,2,...
		}
		a, r := applyRing(t, s, inOrder)
		b, _ := applyRing(t, s, swapped)
		for _, word := range r.vocab {
			q := kws.Query{Keywords: []string{word}, MaxJoins: 1, TopK: -1}
			ra, err := a.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: search %q differs between commit orders", name, word)
			}
		}
	}
}

// A write must change the net data: the batch that updates a row makes the
// row's old text unfindable and its new text findable.
func TestRingBatchHasNonEmptyNetDelta(t *testing.T) {
	s, _ := specByName("live-mixed")
	order := make([]int, ringPriming+1)
	for i := range order {
		order[i] = i
	}
	before, _ := applyRing(t, s, order[:ringPriming])
	after, _ := applyRing(t, s, order)
	count := func(e *kws.Engine) int {
		res, err := e.Search(context.Background(), kws.Query{Keywords: []string{"ring"}, MaxJoins: 1, TopK: -1})
		if err != nil {
			t.Fatal(err)
		}
		return len(res)
	}
	// Batch 64 inserts one ring document and deletes another: the count of
	// ring titles holds while the set changes.
	if count(before) != ringDelete || count(after) != ringDelete {
		t.Fatalf("ring documents before/after batch %d: %d/%d, want %d live", ringPriming, count(before), count(after), ringDelete)
	}
	gone := fmt.Sprintf("DOCUMENT[ring-%d]", 0)
	res, _ := after.Search(context.Background(), kws.Query{Keywords: []string{"ring"}, MaxJoins: 1, TopK: -1})
	for _, r := range res {
		for _, tup := range r.Tuples {
			if tup == gone {
				t.Fatalf("%s survived its delete", gone)
			}
		}
	}
}

func TestReadSequenceIsSeededAndInRange(t *testing.T) {
	for _, s := range specs {
		a := s.readSequence(7, 64, 4096)
		b := s.readSequence(7, 64, 4096)
		c := s.readSequence(8, 64, 4096)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different read sequences", s.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same read sequence", s.name)
		}
		for _, q := range a {
			if int(q) >= 64 {
				t.Fatalf("%s: pool index %d out of range", s.name, q)
			}
		}
	}
}

// A generator change must fail the run, not silently change the benchmark.
func TestInputLockDetectsDrift(t *testing.T) {
	s, _ := specByName("hot-read")
	tw, err := newTwin(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.checkInputs(); err != nil {
		t.Fatalf("committed inputs.lock does not match the generators: %v", err)
	}
	tw.pool = tw.pool[1:]
	if err := tw.checkInputs(); err == nil {
		t.Fatal("a changed query pool passed the input lock")
	}
}

// BENCHMARK.json repeats the workload and metric lists the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, m, want)
		}
	}
	if doc.RunSeconds%rounds != 0 {
		t.Errorf("run_seconds %d does not split into %d whole-second rounds", doc.RunSeconds, rounds)
	}
}
