package kws

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceBatches is a fixed mutation script whose generations produce distinct
// "Smith XML" result sets; both the expected-output precomputation and the
// racing run apply exactly this script.
func raceBatches() []Mutation {
	return []Mutation{
		{Ops: []Op{
			Insert("EMPLOYEE", map[string]any{"SSN": "e10", "L_NAME": "Smith", "S_NAME": "Zoe", "D_ID": "d1"}),
			Insert("WORKS_ON", map[string]any{"ESSN": "e10", "P_ID": "p1", "HOURS": 8}),
		}},
		{Ops: []Op{
			Update("EMPLOYEE", map[string]any{"SSN": "e10"}, map[string]any{"D_ID": "d2"}),
		}},
		{Ops: []Op{
			Update("EMPLOYEE", map[string]any{"SSN": "e2"}, map[string]any{"L_NAME": "Lovelace"}),
		}},
		{Ops: []Op{
			Delete("WORKS_ON", map[string]any{"ESSN": "e10", "P_ID": "p1"}),
			Delete("EMPLOYEE", map[string]any{"SSN": "e10"}),
		}},
		{Ops: []Op{
			Insert("DEPARTMENT", map[string]any{"ID": "d4", "D_NAME": "ml",
				"D_DESCRIPTION": "Machine learning, XML and keyword search."}),
			Update("EMPLOYEE", map[string]any{"SSN": "e4"}, map[string]any{"L_NAME": "Smith", "D_ID": "d4"}),
		}},
		{Ops: []Op{
			// Drop "XML" from d1's description: every answer matching XML
			// through d1 disappears.
			Update("DEPARTMENT", map[string]any{"ID": "d1"}, map[string]any{
				"D_DESCRIPTION": "The main topics of teaching are programming and databases."}),
		}},
	}
}

// TestReadersNeverObserveTornSnapshot races concurrent Search and Stream
// readers against a writer publishing generations with Apply.
// Every observed result set must be exactly the output of SOME generation —
// never a mix of two — and the generation number must be monotone per
// reader. Run with -race -cpu=1,4 in CI.
func TestReadersNeverObserveTornSnapshot(t *testing.T) {
	query := Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}
	ctx := context.Background()

	// Precompute the expected render of every generation on a reference
	// engine (Apply is deterministic).
	ref, err := New(PaperExample(), WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	batches := raceBatches()
	expected := make([][]string, 0, len(batches)+1)
	record := func() {
		res, err := ref.Search(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		expected = append(expected, renders(res))
	}
	record()
	for _, m := range batches {
		if _, err := ref.Apply(ctx, m); err != nil {
			t.Fatal(err)
		}
		record()
	}
	for i := 1; i < len(expected); i++ {
		if reflect.DeepEqual(expected[i-1], expected[i]) {
			t.Fatalf("fixture: generations %d and %d have identical output; the race would prove nothing", i-1, i)
		}
	}

	// The racing run: one writer, several readers of each flavor.
	live, err := New(PaperExample(), WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	matchesSomeGeneration := func(got []string) bool {
		for _, want := range expected {
			if reflect.DeepEqual(got, want) {
				return true
			}
		}
		return false
	}

	var done atomic.Bool
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := uint64(0)
			for !done.Load() {
				if g := live.Generation(); g < lastGen {
					report(errFmt("generation went backwards: %d after %d", g, lastGen))
					return
				} else {
					lastGen = g
				}
				res, err := live.Search(ctx, query)
				if err != nil {
					report(err)
					return
				}
				if got := renders(res); !matchesSomeGeneration(got) {
					report(errFmt("torn Search result: %v", got))
					return
				}
			}
		}()
	}
	// Stream readers: the whole stream must stay on one generation even when
	// Apply lands mid-stream. Streams are unranked, so compare as sets
	// against each generation's unranked stream output — simpler: collect
	// and compare against streamed expectations.
	streamExpected := make([][]string, 0, len(expected))
	refStream, err := New(PaperExample(), WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	collectStream := func(e *Engine) []string {
		var out []string
		if err := e.Stream(ctx, query, func(r Result) bool {
			out = append(out, r.ConnectionWithCardinalities)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	streamExpected = append(streamExpected, collectStream(refStream))
	for _, m := range batches {
		if _, err := refStream.Apply(ctx, m); err != nil {
			t.Fatal(err)
		}
		streamExpected = append(streamExpected, collectStream(refStream))
	}
	matchesSomeStream := func(got []string) bool {
		for _, want := range streamExpected {
			if reflect.DeepEqual(got, want) {
				return true
			}
		}
		return false
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				var got []string
				if err := live.Stream(ctx, query, func(r Result) bool {
					got = append(got, r.ConnectionWithCardinalities)
					return true
				}); err != nil {
					report(err)
					return
				}
				if !matchesSomeStream(got) {
					report(errFmt("torn Stream result: %v", got))
					return
				}
			}
		}()
	}
	// The writer publishes the script with small pauses so readers land on
	// every generation.
	for _, m := range batches {
		time.Sleep(2 * time.Millisecond)
		if _, err := live.Apply(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond)
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if live.Generation() != uint64(len(batches)) {
		t.Fatalf("final generation = %d, want %d", live.Generation(), len(batches))
	}
	// The racing engine converged on the reference output.
	final, err := live.Search(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if got := renders(final); !reflect.DeepEqual(got, expected[len(expected)-1]) {
		t.Fatalf("final output %v != reference %v", got, expected[len(expected)-1])
	}
}

// TestConcurrentApplySerializes checks that racing writers each publish
// exactly one generation and the result is equivalent to some serial order
// (here: all ops are commutative inserts, so the final state is unique).
func TestConcurrentApplySerializes(t *testing.T) {
	e, err := New(PaperExample(), WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers = 8
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := e.Apply(ctx, Mutation{Ops: []Op{
				Insert("DEPENDENT", map[string]any{
					"ID": fmt.Sprintf("tc%d", w), "ESSN": "e3", "DEPENDENT_NAME": "Racer"}),
			}})
			if err != nil {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if e.Generation() != writers {
		t.Fatalf("generation = %d, want %d", e.Generation(), writers)
	}
	if got := len(e.Match("Racer")); got != writers {
		t.Fatalf("Match(Racer) = %d tuples, want %d", got, writers)
	}
}

func errFmt(format string, args ...any) error { return fmt.Errorf(format, args...) }
