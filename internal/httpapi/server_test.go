package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/kws"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *kws.Engine) {
	t.Helper()
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, engine
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out
}

var smithXML = QueryRequest{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}

// TestFromQueryRoundTrips pins FromQuery as the inverse of ToQuery for every
// wire-representable field, so remote clients built on it (ksearch -remote)
// send exactly the query they were handed.
func TestFromQueryRoundTrips(t *testing.T) {
	q := kws.Query{
		Keywords:        []string{"Smith", "XML"},
		Engine:          kws.EngineBANKS,
		Ranking:         kws.RankERLength,
		MaxJoins:        4,
		TopK:            7,
		InstanceChecks:  kws.ToggleOff,
		LoosenessLambda: 2.5,
	}
	if got := FromQuery(q).ToQuery(); !reflect.DeepEqual(got, q) {
		t.Fatalf("FromQuery/ToQuery round trip = %+v, want %+v", got, q)
	}
	// The default toggle stays a nil pointer on the wire.
	if req := FromQuery(kws.Query{Keywords: []string{"a"}}); req.InstanceChecks != nil {
		t.Error("default InstanceChecks toggle minted a wire value")
	}
}

func TestSearchSingleMatchesEngineAndCaches(t *testing.T) {
	_, ts, engine := newTestServer(t, Options{})
	want, err := engine.Search(context.Background(), smithXML.ToQuery())
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &smithXML})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	first := decode[SearchResponse](t, resp)
	if first.Cached {
		t.Error("first query reported cached")
	}
	if first.Generation != 0 {
		t.Errorf("generation = %d, want 0", first.Generation)
	}
	if !reflect.DeepEqual(first.Results, FromResults(want)) {
		t.Error("wire results diverge from engine.Search")
	}

	second := decode[SearchResponse](t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &smithXML}))
	if !second.Cached {
		t.Error("repeated query not served from cache")
	}
	if !reflect.DeepEqual(second.Results, first.Results) {
		t.Error("cached results diverge from first response")
	}

	stats := decode[StatsResponse](t, mustGet(t, ts.URL+"/v1/stats"))
	if stats.Cache.Hits < 1 || stats.Cache.HitRate <= 0 {
		t.Errorf("stats cache = %+v, want at least one hit", stats.Cache)
	}
	if stats.Server.Searches != 2 {
		t.Errorf("searches = %d, want 2", stats.Server.Searches)
	}
	if q, ok := stats.Latency["default"]; !ok || q.Count != 2 {
		t.Errorf("latency[default] = %+v ok=%v, want count 2", q, ok)
	}
}

func TestSearchNoCacheBypasses(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	q := smithXML
	q.NoCache = true
	for i := 0; i < 2; i++ {
		r := decode[SearchResponse](t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &q}))
		if r.Cached {
			t.Fatal("no_cache query reported cached")
		}
	}
	if st := s.Cache().Stats(); st.Hits+st.Misses+st.Collapses != 0 || st.Entries != 0 {
		t.Errorf("cache touched by no_cache queries: %+v", st)
	} else if st.Bypasses != 2 {
		t.Errorf("bypasses = %d, want 2", st.Bypasses)
	}
}

func TestSearchBatch(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	req := SearchRequest{Queries: []QueryRequest{
		smithXML,
		{Keywords: []string{"Smith", "XML"}, Engine: "bogus"},
		{Keywords: []string{"Alice", "XML"}, MaxJoins: 4},
	}}
	items := decode[[]BatchItem](t, postJSON(t, ts.URL+"/v1/search", req))
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	if items[0].Error != "" || len(items[0].Results) == 0 {
		t.Errorf("item 0 = %+v, want results", items[0])
	}
	if !strings.Contains(items[1].Error, "unknown engine") {
		t.Errorf("item 1 error = %q, want unknown engine", items[1].Error)
	}
	if items[2].Error != "" {
		t.Errorf("item 2 error = %q", items[2].Error)
	}
}

func TestSearchStreamNDJSON(t *testing.T) {
	_, ts, engine := newTestServer(t, Options{})
	var want []kws.Result
	err := engine.Stream(context.Background(), smithXML.ToQuery(), func(r kws.Result) bool {
		want = append(want, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &smithXML, Stream: true})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var got []Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item StreamItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Error != "" {
			t.Fatalf("stream error: %s", item.Error)
		}
		got = append(got, *item.Result)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, FromResults(want)) {
		t.Errorf("streamed results diverge from engine.Stream (%d vs %d)", len(got), len(want))
	}
}

func TestBatchStreamNDJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	req := SearchRequest{Queries: []QueryRequest{smithXML, {Keywords: []string{"nope"}}}, Stream: true}
	resp := postJSON(t, ts.URL+"/v1/search", req)
	defer resp.Body.Close()
	var items []BatchItem
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		items = append(items, item)
	}
	if len(items) != 2 {
		t.Fatalf("lines = %d, want 2", len(items))
	}
	if len(items[0].Results) == 0 {
		t.Errorf("item 0 = %+v, want results", items[0])
	}
}

func TestMutateBumpsGenerationAndCacheFollows(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	before := decode[SearchResponse](t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &smithXML}))

	resp := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{Ops: []Op{{
		Op:    "delete",
		Table: "DEPENDENT",
		Key:   map[string]any{"ID": "t2"},
	}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status = %d: %s", resp.StatusCode, decode[ErrorResponse](t, resp).Error)
	}
	mr := decode[MutateResponse](t, resp)
	if mr.Generation != before.Generation+1 {
		t.Fatalf("generation = %d, want %d", mr.Generation, before.Generation+1)
	}

	after := decode[SearchResponse](t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &smithXML}))
	if after.Cached {
		t.Error("first query after mutation served from the old generation's cache")
	}
	if after.Generation != mr.Generation {
		t.Errorf("search generation = %d, want %d", after.Generation, mr.Generation)
	}

	health := decode[HealthResponse](t, mustGet(t, ts.URL+"/v1/healthz"))
	if health.Status != "ok" || health.Generation != mr.Generation {
		t.Errorf("healthz = %+v", health)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	cases := []struct {
		name string
		path string
		body string
	}{
		{"invalid json", "/v1/search", `{`},
		{"unknown field", "/v1/search", `{"quary": {}}`},
		{"no query", "/v1/search", `{}`},
		{"both query and queries", "/v1/search", `{"query":{"keywords":["x"]},"queries":[{"keywords":["y"]}]}`},
		{"empty keywords", "/v1/search", `{"query":{"keywords":[]}}`},
		{"unknown engine", "/v1/search", `{"query":{"keywords":["Smith"],"engine":"bogus"}}`},
		{"empty ops", "/v1/mutate", `{"ops":[]}`},
		{"unknown op", "/v1/mutate", `{"ops":[{"op":"upsert","table":"X"}]}`},
		{"unknown table", "/v1/mutate", `{"ops":[{"op":"insert","table":"NOPE","row":{}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			er := decode[ErrorResponse](t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d (%s), want 400", resp.StatusCode, er.Error)
			}
			if er.Error == "" {
				t.Error("400 without an error message")
			}
		})
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope = %d, want 404", resp.StatusCode)
	}
}

// blockingSearcher parks every query until released, signalling entry; it
// lets tests hold a request in flight deterministically.
type blockingSearcher struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingSearcher) Stream(ctx context.Context, _ kws.Query, _ func(kws.Answer) bool) error {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	block := &blockingSearcher{entered: make(chan struct{}, 1), release: make(chan struct{})}
	kws.RegisterEngine("test-block-shed", func(kws.Components) (kws.Searcher, error) { return block, nil })
	_, ts, _ := newTestServer(t, Options{MaxInFlight: 1, Timeout: 30 * time.Second})

	done := make(chan *http.Response, 1)
	go func() {
		done <- postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &QueryRequest{
			Keywords: []string{"Smith"}, Engine: "test-block-shed",
		}})
	}()
	select {
	case <-block.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking query never entered the searcher")
	}

	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &smithXML})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// Shed responses must carry a backoff hint: load generators and real
	// clients key their retry delay off Retry-After.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 shed response lacks a Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
	}
	resp.Body.Close()

	close(block.release)
	first := <-done
	if first.StatusCode != http.StatusOK {
		t.Fatalf("blocked request finished with %d", first.StatusCode)
	}
	first.Body.Close()

	stats := decode[StatsResponse](t, mustGet(t, ts.URL+"/v1/stats"))
	if stats.Server.Shed != 1 {
		t.Errorf("shed = %d, want 1", stats.Server.Shed)
	}
	if stats.Server.ShedRate <= 0 || stats.Server.ShedRate >= 1 {
		t.Errorf("shed_rate = %g, want within (0,1) after one shed and one success", stats.Server.ShedRate)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	block := &blockingSearcher{entered: make(chan struct{}, 1), release: make(chan struct{})}
	kws.RegisterEngine("test-block-timeout", func(kws.Components) (kws.Searcher, error) { return block, nil })
	defer close(block.release)
	_, ts, _ := newTestServer(t, Options{Timeout: 50 * time.Millisecond})

	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: &QueryRequest{
		Keywords: []string{"Smith"}, Engine: "test-block-timeout",
	}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return resp
}

func TestWireOpConversions(t *testing.T) {
	if _, err := (Op{Op: "noop"}).ToOp(); err == nil {
		t.Error("unknown op kind must fail")
	}
	op, err := (Op{Op: "update", Table: "T", Key: map[string]any{"k": "1"}, Set: map[string]any{"c": 2}}).ToOp()
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != kws.OpUpdate || op.Table != "T" || !reflect.DeepEqual(op.Row, map[string]any{"c": 2}) {
		t.Errorf("ToOp = %+v", op)
	}
	q := QueryRequest{Keywords: []string{"a"}, InstanceChecks: boolPtr(false)}
	if got := q.ToQuery().InstanceChecks; got != kws.ToggleOff {
		t.Errorf("InstanceChecks = %v, want ToggleOff", got)
	}
}

func boolPtr(b bool) *bool { return &b }

func TestStatsShape(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{MaxInFlight: 7})
	stats := decode[StatsResponse](t, mustGet(t, ts.URL+"/v1/stats"))
	if stats.Engine.Relations == 0 || stats.Engine.Tuples == 0 {
		t.Errorf("engine stats empty: %+v", stats.Engine)
	}
	if stats.Server.MaxInFlight != 7 {
		t.Errorf("max_in_flight = %d, want 7", stats.Server.MaxInFlight)
	}
	if stats.Cache.MaxBytes == 0 {
		t.Errorf("cache max_bytes = 0")
	}
	_ = fmt.Sprintf("%+v", stats)
}
