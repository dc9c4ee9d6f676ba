package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/kws"
)

// bootLog collects a child kwsd's stderr and announces the address parsed
// from its "serving ... on ADDR" line on addr (buffered, read once).
type bootLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

var servingLine = regexp.MustCompile(`kwsd: serving .* on (\S+)\n`)

func (b *bootLog) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if m := servingLine.FindSubmatch(b.buf.Bytes()); m != nil {
		select {
		case b.addr <- string(m[1]):
		default: // already announced
		}
	}
	return len(p), nil
}

func (b *bootLog) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bootChild re-executes the test binary as a durable kwsd on the paper
// database (see TestMain) and returns its base URL and a kill that SIGKILLs
// it and waits for it to be gone. The test's cleanup kills it too.
func bootChild(t *testing.T, shards int, dataDir string) (base string, kill func()) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-db", "paper", "-scale", "2",
		"-shards", strconv.Itoa(shards), "-data-dir", dataDir, "-snapshot-every", "8")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	log := &bootLog{addr: make(chan string, 1)}
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // a killed child always reports an error
		close(exited)
	}()
	kill = func() {
		_ = cmd.Process.Kill() // fails only when the child is already gone
		<-exited
	}
	t.Cleanup(kill)
	select {
	case addr := <-log.addr:
		base = "http://" + addr
	case <-exited:
		t.Fatalf("kwsd child exited before listening:\n%s", log)
	case <-time.After(30 * time.Second):
		t.Fatalf("kwsd child never became ready:\n%s", log)
	}
	return base, kill
}

// crashBatch is write i (1-based) of the drill: it inserts employee i under
// an XML department, renames employee i-8 and deletes employee i-16. Every
// batch has a non-empty net delta on the graph and on the posting lists the
// probes read, so recovery has real deltas to replay.
func crashBatch(i int) []httpapi.Op {
	key := func(i int) map[string]any { return map[string]any{"SSN": fmt.Sprintf("crash-%d", i)} }
	row := key(i)
	row["L_NAME"], row["S_NAME"], row["D_ID"] = "Smith", "John", fmt.Sprintf("d%d", 1+i%2)
	ops := []httpapi.Op{{Op: "insert", Table: "EMPLOYEE", Row: row}}
	if i > 8 {
		ops = append(ops, httpapi.Op{Op: "update", Table: "EMPLOYEE", Key: key(i - 8),
			Set: map[string]any{"L_NAME": "Miller"}})
	}
	if i > 16 {
		ops = append(ops, httpapi.Op{Op: "delete", Table: "EMPLOYEE", Key: key(i - 16)})
	}
	return ops
}

var crashProbes = []httpapi.QueryRequest{
	{Keywords: []string{"Smith", "XML"}, MaxJoins: 3, NoCache: true},
	{Keywords: []string{"Miller", "XML"}, Engine: "mtjnt", MaxJoins: 3, NoCache: true},
	{Keywords: []string{"John", "databases"}, Engine: "banks", MaxJoins: 3, TopK: 5, NoCache: true},
	{Keywords: []string{"Alice", "XML"}, MaxJoins: 4, Ranking: "rdb-length", NoCache: true},
}

// twinResults answers the probes on an in-process engine and renders each
// answer list the way the server does.
func twinResults(t *testing.T, twin *kws.Engine) []string {
	t.Helper()
	out := make([]string, len(crashProbes))
	for i, p := range crashProbes {
		results, err := twin.Search(context.Background(), p.ToQuery())
		if err != nil {
			t.Fatalf("twin probe %v: %v", p.Keywords, err)
		}
		out[i] = marshal(t, httpapi.FromResults(results))
	}
	return out
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSIGKILLRecovery kills a durable kwsd process mid-write-load, reboots
// it on the same data directory and checks that nothing acknowledged was
// lost: the recovered generation covers every acked batch, and its search
// output equals an in-process twin advanced by exactly that many batches.
func TestSIGKILLRecovery(t *testing.T) {
	// The kill races the post of this batch: after two snapshots
	// (-snapshot-every 8) and the first deletes (batch 17 on), with the
	// writer still posting.
	const killAt = 20
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dataDir := t.TempDir()
			base, kill := bootChild(t, shards, dataDir)

			// One sequential writer: batch i publishes generation i, and it
			// stops at the first failed post.
			var acked uint64
			reached := make(chan struct{})
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				for i := 1; ; i++ {
					if i == killAt {
						close(reached)
					}
					gen, err := mutate(base, crashBatch(i))
					if err != nil {
						return
					}
					if gen != uint64(i) {
						t.Errorf("batch %d published generation %d", i, gen)
						return
					}
					acked = gen
				}
			}()
			select {
			case <-reached:
			case <-stopped:
				t.Fatalf("writer stopped before batch %d", killAt)
			case <-time.After(30 * time.Second):
				t.Fatalf("writer never reached batch %d", killAt)
			}
			kill()
			<-stopped

			base, _ = bootChild(t, shards, dataDir)
			st := stats(t, base)
			g := st.Generation
			// The batch in flight at the kill may have reached the log
			// without its response reaching the writer.
			if g != acked && g != acked+1 {
				t.Fatalf("recovered generation %d, want acked %d or %d", g, acked, acked+1)
			}
			if st.Persistence == nil {
				t.Error("durable server omitted the persistence block")
			}
			if shards > 1 {
				if len(st.GenerationVector) != shards || len(st.Shards) != shards {
					t.Fatalf("recovered %d shard blocks, vector %v; want %d", len(st.Shards), st.GenerationVector, shards)
				}
				for i, b := range st.Shards {
					if st.GenerationVector[i] != b.Generation {
						t.Errorf("vector %v disagrees with shard %d block generation %d", st.GenerationVector, i, b.Generation)
					}
				}
			}

			twin, err := buildEngine("paper", 2, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			seed := twinResults(t, twin)
			for i := 1; uint64(i) <= g; i++ {
				ops := crashBatch(i)
				m := kws.Mutation{Ops: make([]kws.Op, len(ops))}
				for j, o := range ops {
					if m.Ops[j], err = o.ToOp(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := twin.Apply(context.Background(), m); err != nil {
					t.Fatalf("twin batch %d: %v", i, err)
				}
			}
			want := twinResults(t, twin)
			changed := false
			for i, p := range crashProbes {
				sr := search(t, base, p)
				if sr.Generation != g {
					t.Errorf("probe %v answered at generation %d, want %d", p.Keywords, sr.Generation, g)
				}
				if got := marshal(t, sr.Results); got != want[i] {
					t.Errorf("probe %v differs from the twin at generation %d:\nserver: %s\ntwin:   %s", p.Keywords, g, got, want[i])
				}
				changed = changed || want[i] != seed[i]
			}
			if !changed {
				t.Error("no probe changed between generation 0 and the recovered generation: the write load was empty")
			}
		})
	}
}
