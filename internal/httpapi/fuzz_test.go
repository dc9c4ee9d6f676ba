package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/kws"
)

// fuzzPost sends body, behind pad bytes of leading whitespace, to path on a
// fresh paper-database server (fresh so a failing input reproduces on its
// own, whatever mutations ran before it) and checks what holds for every
// request: no 5xx, only 200 or 400, an error body that decodes, and a
// refusal when the strict decoder rejects body as a T. It returns the
// recorded response and the decoded request.
func fuzzPost[T any](t *testing.T, path string, body []byte, pad int) (*httptest.ResponseRecorder, T) {
	t.Helper()
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	sent := io.MultiReader(strings.NewReader(strings.Repeat(" ", pad)), bytes.NewReader(body))
	rec := httptest.NewRecorder()
	New(engine, Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, sent))

	var req T
	wellFormed := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), &req) == nil
	switch {
	case rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest:
		t.Fatalf("status %d for body %q", rec.Code, body)
	case rec.Code == http.StatusOK && !wellFormed:
		t.Fatalf("status 200 for a body the strict decoder refuses: %q", body)
	case rec.Code == http.StatusBadRequest:
		if er := decodeAll[ErrorResponse](t, rec.Body); len(er) != 1 || er[0].Error == "" {
			t.Fatalf("400 body %v does not carry one error", er)
		}
	}
	return rec, req
}

// decodeAll strictly decodes a whole response body — one JSON value or
// NDJSON lines — as T values.
func decodeAll[T any](t *testing.T, body io.Reader) []T {
	t.Helper()
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var out []T
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("response does not re-decode: %v", err)
		}
		out = append(out, v)
	}
}

// overflowingLambda asks for a looseness penalty so large that a result
// with two transitive N:M sub-paths scores +Inf, which no JSON number holds.
const overflowingLambda = `{"query": {"keywords": ["Smith", "XML"], "ranking": "looseness-penalty", "looseness_lambda": 1e308}}`

// TestSearchNonFiniteScoreIs400: a query whose ranking overflows is the
// client's error, answered before any 200 goes out.
func TestSearchNonFiniteScoreIs400(t *testing.T) {
	if rec, _ := fuzzPost[SearchRequest](t, "/v1/search", []byte(overflowingLambda), 0); rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %q", rec.Code, rec.Body)
	}
}

// FuzzWireSearch throws arbitrary bodies at POST /v1/search. Seeds are the
// request shapes of docs/http-api.md plus one malformed variant of each kind.
func FuzzWireSearch(f *testing.F) {
	for _, seed := range []string{
		`{"query": {"keywords": ["Smith", "XML"], "max_joins": 3, "top_k": 2}}`,
		`{"queries": [{"keywords": ["Smith", "XML"]}, {"keywords": ["Alice", "XML"], "max_joins": 4}, {"keywords": ["Smith"], "engine": "nope"}]}`,
		`{"query": {"keywords": ["Smith", "XML"], "max_joins": 3}, "stream": true}`,
		`{"queries": [{"keywords": ["Smith", "XML"], "engine": "banks"}, {"keywords": []}], "stream": true}`,
		`{"query": {"keywords": ["Smith", "XML"], "engine": "mtjnt", "ranking": "looseness-penalty", "looseness_lambda": 0.5, "instance_checks": false, "no_cache": true}}`,
		`{"query": {"keywords": ["Smith"]}, "queries": [{"keywords": ["XML"]}]}`,
		`{"query": {"keywords": ["Smith"], "max_joinz": 3}}`,
		`{"query": {"keywords": "Smith"}}`,
		`{}`,
		`{"query":`,
		overflowingLambda,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, req := fuzzPost[SearchRequest](t, "/v1/search", body, 0)
		if rec.Code != http.StatusOK {
			return
		}
		switch {
		case req.Stream && req.Query != nil:
			decodeAll[StreamItem](t, rec.Body)
		case req.Stream:
			if items := decodeAll[BatchItem](t, rec.Body); len(items) != len(req.Queries) {
				t.Fatalf("streamed batch of %d queries answered %d items", len(req.Queries), len(items))
			}
		case req.Query != nil:
			if sr := decodeAll[SearchResponse](t, rec.Body); len(sr) != 1 {
				t.Fatalf("single search answered %d values", len(sr))
			}
		default:
			if items := decodeAll[[]BatchItem](t, rec.Body); len(items) != 1 || len(items[0]) != len(req.Queries) {
				t.Fatalf("batch of %d queries answered %v", len(req.Queries), items)
			}
		}
	})
}

// FuzzWireMutate throws arbitrary bodies at POST /v1/mutate.
func FuzzWireMutate(f *testing.F) {
	for _, seed := range []string{
		`{"ops": [{"op": "insert", "table": "EMPLOYEE", "row": {"SSN": "e5", "L_NAME": "Turing", "S_NAME": "Alan", "D_ID": "d1"}}, {"op": "update", "table": "EMPLOYEE", "key": {"SSN": "e1"}, "set": {"D_ID": "d2"}}, {"op": "delete", "table": "DEPENDENT", "key": {"ID": "t2"}}]}`,
		`{"ops": [{"op": "update", "table": "PROJECT", "key": {"ID": "p1"}, "set": {"P_DESCRIPTION": null}}]}`,
		`{"ops": [{"op": "insert", "table": "WORKS_ON", "row": {"ESSN": "e1", "P_ID": "p2", "HOURS": 12}}]}`,
		`{"ops": [{"op": "insert", "table": "WORKS_ON", "row": {"ESSN": "e1", "P_ID": "p2", "HOURS": 1.5e300}}]}`,
		`{"ops": [{"op": "insert", "table": "EMPLOYEE", "row": {"SSN": "e9", "L_NAME": "Orphan", "S_NAME": "No", "D_ID": "d9"}}]}`,
		`{"ops": [{"op": "delete", "table": "DEPARTMENT", "key": {"ID": "d1"}}]}`,
		`{"ops": [{"op": "upsert", "table": "EMPLOYEE"}]}`,
		`{"ops": [{"op": "delete", "table": "DEPENDENT", "key": {"ID": ["t2"]}}]}`,
		`{"ops": []}`,
		`{"ops": [{"op": "delete", "tabel": "DEPENDENT"}]}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, _ := fuzzPost[MutateRequest](t, "/v1/mutate", body, 0)
		if rec.Code != http.StatusOK {
			return
		}
		// The server was fresh, so an accepted batch published generation 1.
		if mr := decodeAll[MutateResponse](t, rec.Body); len(mr) != 1 || mr[0].Generation != 1 {
			t.Fatalf("accepted mutation answered %+v, want generation 1", mr)
		}
	})
}

// TestWireBodyCap: the decoders read at most 4 MiB. Leading whitespace is
// part of the body, so a valid request is served when it ends exactly at the
// cap and refused when it ends one byte past it. (Not a fuzz argument: a
// 4 MiB exec is two hundred times slower than a typical one.)
func TestWireBodyCap(t *testing.T) {
	search := []byte(`{"query": {"keywords": ["Smith", "XML"]}}`)
	mutate := []byte(`{"ops": [{"op": "delete", "table": "DEPENDENT", "key": {"ID": "t2"}}]}`)
	for over, want := range []int{http.StatusOK, http.StatusBadRequest} {
		if rec, _ := fuzzPost[SearchRequest](t, "/v1/search", search, maxBodyBytes-len(search)+over); rec.Code != want {
			t.Errorf("search body %d past the cap: status %d, want %d", over, rec.Code, want)
		}
		if rec, _ := fuzzPost[MutateRequest](t, "/v1/mutate", mutate, maxBodyBytes-len(mutate)+over); rec.Code != want {
			t.Errorf("mutate body %d past the cap: status %d, want %d", over, rec.Code, want)
		}
	}
}
