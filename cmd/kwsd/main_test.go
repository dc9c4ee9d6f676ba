package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// childEnv marks a re-execution of this test binary as a kwsd process: the
// SIGKILL drill needs a real process to kill, and the binary under test
// already links main().
const childEnv = "KWSD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// bootRun starts run() in this process on an ephemeral port and returns its
// base URL plus a shutdown that cancels it and waits for a clean drain.
func bootRun(t *testing.T, shards int, dataDir string) (base string, shutdown func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", "paper", 1, 1, 1, shards, dataDir, 0, httpapi.Options{}, ready)
	}()
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		cancel()
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	return base, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v on shutdown", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// postJSON posts in to url and decodes a 200 body into out. It returns the
// failure instead of ending the test: the SIGKILL drill's writer calls it
// off the test goroutine and expects it to fail once the server is dead.
func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func search(t *testing.T, base string, q httpapi.QueryRequest) httpapi.SearchResponse {
	t.Helper()
	var sr httpapi.SearchResponse
	if err := postJSON(base+"/v1/search", httpapi.SearchRequest{Query: &q}, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// mutate applies one batch and returns the generation it published.
func mutate(base string, ops []httpapi.Op) (uint64, error) {
	var mr httpapi.MutateResponse
	err := postJSON(base+"/v1/mutate", httpapi.MutateRequest{Ops: ops}, &mr)
	return mr.Generation, err
}

func stats(t *testing.T, base string) httpapi.StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr httpapi.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

var (
	smithXML = httpapi.QueryRequest{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}
	deleteT2 = []httpapi.Op{{Op: "delete", Table: "DEPENDENT", Key: map[string]any{"ID": "t2"}}}
)

func TestBuildEngine(t *testing.T) {
	e, err := buildEngine("paper", 1, 1, 1)
	if err != nil {
		t.Fatalf("paper: %v", err)
	}
	if rels, tuples, _ := e.Stats(); rels == 0 || tuples == 0 {
		t.Errorf("paper engine empty: %d relations, %d tuples", rels, tuples)
	}
	for _, db := range []string{"synthetic", "logs", "docs"} {
		e, err := buildEngine(db, 1, 7, 1)
		if err != nil {
			t.Errorf("%s: %v", db, err)
			continue
		}
		if _, tuples, _ := e.Stats(); tuples == 0 {
			t.Errorf("%s engine empty", db)
		}
	}
	if _, err := buildEngine("bogus", 1, 1, 1); err == nil {
		t.Error("unknown database should fail")
	}
}

// TestRunServesAndShutsDown boots the real server on an ephemeral port,
// exercises the search/mutate/stats cycle over HTTP, and checks that
// cancelling the context drains it.
func TestRunServesAndShutsDown(t *testing.T) {
	base, shutdown := bootRun(t, 1, "")

	if first := search(t, base, smithXML); first.Cached || len(first.Results) == 0 {
		t.Errorf("first search = cached %v, %d results", first.Cached, len(first.Results))
	}
	if second := search(t, base, smithXML); !second.Cached {
		t.Error("second search not served from cache")
	}
	if _, err := mutate(base, deleteT2); err != nil {
		t.Fatal(err)
	}
	if after := search(t, base, smithXML); after.Generation != 1 || after.Cached {
		t.Errorf("post-mutation search = generation %d cached %v, want 1 and false", after.Generation, after.Cached)
	}
	if s := stats(t, base); s.Cache.HitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", s.Cache.HitRate)
	}
	shutdown()
}

// TestRunPersistsAcrossRestart boots a durable server (plain and -shards 2),
// mutates it, shuts it down, boots a second server over the same data
// directory and checks the mutation survived: same generation, same search
// output, same generation vector, and a stats persistence block describing
// the recovery.
func TestRunPersistsAcrossRestart(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dataDir := t.TempDir()
			// An unsharded server reports no vector and no shard blocks.
			wantBlocks := 0
			if shards > 1 {
				wantBlocks = shards
			}

			base, shutdown := bootRun(t, shards, dataDir)
			if _, err := mutate(base, deleteT2); err != nil {
				t.Fatal(err)
			}
			before := search(t, base, smithXML)
			if before.Generation != 1 {
				t.Fatalf("generation before restart = %d, want 1", before.Generation)
			}
			beforeStats := stats(t, base)
			if len(beforeStats.Shards) != wantBlocks || len(beforeStats.GenerationVector) != wantBlocks {
				t.Fatalf("server reports %d shard blocks, vector %v; want %d",
					len(beforeStats.Shards), beforeStats.GenerationVector, wantBlocks)
			}
			shutdown()

			base2, shutdown2 := bootRun(t, shards, dataDir)
			defer shutdown2()
			after := search(t, base2, smithXML)
			if after.Generation != 1 {
				t.Fatalf("generation after restart = %d, want 1", after.Generation)
			}
			if !reflect.DeepEqual(after.Results, before.Results) {
				t.Fatalf("search results changed across restart:\nbefore: %+v\nafter:  %+v", before.Results, after.Results)
			}
			afterStats := stats(t, base2)
			if !reflect.DeepEqual(afterStats.GenerationVector, beforeStats.GenerationVector) {
				t.Fatalf("generation vector changed across restart: %v -> %v",
					beforeStats.GenerationVector, afterStats.GenerationVector)
			}
			// The graceful shutdown checkpointed, so recovery loaded a
			// snapshot and replayed nothing. A sharded server reports its
			// snapshot generations per shard block, not in this one.
			p := afterStats.Persistence
			if p == nil {
				t.Fatal("durable server omitted the persistence block")
			}
			if p.ReplayedRecords != 0 || (shards == 1 && p.LastSnapshotGeneration != 1) {
				t.Fatalf("persistence after restart = %+v, want snapshot gen 1 and 0 replayed", p)
			}
		})
	}
}
