package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/httpapi"
	"repro/kws"
)

// probes is how many queries are compared with the twin before each window.
const probes = 16

// twin is an in-process engine built from the same (db, scale, seed) as the
// kwsd under test; it is the reference every over-the-wire answer is held
// to, and the source of the filtered query pool.
type twin struct {
	s      spec
	db     *kws.Database
	engine *kws.Engine
	pool   [][]string
	ring   ring
}

func newTwin(s spec) (*twin, error) {
	db := s.database()
	engine, err := kws.New(db)
	if err != nil {
		return nil, err
	}
	t := &twin{s: s, db: db, engine: engine}
	t.pool = s.queryPool(engine)
	if len(t.pool) < probes {
		return nil, fmt.Errorf("%s: query pool has only %d entries", s.name, len(t.pool))
	}
	t.ring = newRing(s, t.pool)
	return t, nil
}

// prime applies the ring-priming batches, bringing the twin to the
// generation a freshly set-up kwsd is at when its window starts.
func (t *twin) prime(ctx context.Context) error {
	for i := 0; i < ringPriming; i++ {
		m, err := mutation(t.ring.batch(i))
		if err != nil {
			return err
		}
		if _, err := t.engine.Apply(ctx, m); err != nil {
			return fmt.Errorf("twin priming batch %d: %w", i, err)
		}
	}
	return nil
}

// probe sends probes queries spread over the pool and requires each answer
// to be JSON-equal to httpapi.FromResults of the twin's Engine.Search at the
// same generation.
func (t *twin) probe(ctx context.Context, c *conn) error {
	step := len(t.pool) / probes
	for i := 0; i < probes; i++ {
		wire := t.s.wireQuery(t.pool[i*step], i)
		req, err := request("/v1/search", httpapi.SearchRequest{Query: &wire})
		if err != nil {
			return err
		}
		var got httpapi.SearchResponse
		if err := c.roundTripJSON(req, &got); err != nil {
			return fmt.Errorf("probe %v: %w", wire.Keywords, err)
		}
		results, err := t.engine.Search(ctx, wire.ToQuery())
		if err != nil {
			return fmt.Errorf("twin %v: %w", wire.Keywords, err)
		}
		want, _ := json.Marshal(httpapi.FromResults(results))
		have, _ := json.Marshal(got.Results)
		if got.Generation != t.engine.Generation() || !bytes.Equal(want, have) {
			return fmt.Errorf("probe %v (engine %q) differs from the in-process twin:\n wire gen %d: %s\n twin gen %d: %s",
				wire.Keywords, wire.Engine, got.Generation, have, t.engine.Generation(), want)
		}
	}
	return nil
}

// ringRowReadable searches for the marker word of the document ring's titles
// and requires the row inserted by write batch i among the answers.
func ringRowReadable(c *conn, i int) error {
	q := httpapi.QueryRequest{Keywords: []string{"ring"}, MaxJoins: 1, TopK: -1, NoCache: true}
	req, err := request("/v1/search", httpapi.SearchRequest{Query: &q})
	if err != nil {
		return err
	}
	var got httpapi.SearchResponse
	if err := c.roundTripJSON(req, &got); err != nil {
		return err
	}
	want := fmt.Sprintf("[ring-%d]", mod(i, ringKeys))
	for _, res := range got.Results {
		for _, tup := range res.Tuples {
			if strings.HasSuffix(tup, want) {
				return nil
			}
		}
	}
	return fmt.Errorf("row %s of the last acknowledged write is not among %d answers for %v", want, len(got.Results), q.Keywords)
}

// The input lock. kwsd's -db/-scale/-seed flags and internal/workload
// generate the inputs, so a change to a generator would silently change the
// benchmark; inputs.lock pins a SHA-256 of every dataset's Database.Dump and
// of every filtered query pool, and each run recomputes both.
//
//go:embed inputs.lock
var inputsLock string

func (t *twin) inputDigests() (map[string]string, error) {
	dump := sha256.New()
	if err := t.db.Dump(dump); err != nil {
		return nil, err
	}
	pool, err := json.Marshal(t.pool)
	if err != nil {
		return nil, err
	}
	poolSum := sha256.Sum256(pool)
	return map[string]string{
		"dataset " + t.s.datasetKey(): hex.EncodeToString(dump.Sum(nil)),
		"pool " + t.s.name:            hex.EncodeToString(poolSum[:]),
	}, nil
}

// checkInputs fails when a digest of this workload's inputs is missing from
// inputs.lock or differs from it.
func (t *twin) checkInputs() error {
	locked := make(map[string]string)
	for _, line := range strings.Split(inputsLock, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			locked[f[0]+" "+f[1]] = f[2]
		}
	}
	digests, err := t.inputDigests()
	if err != nil {
		return err
	}
	for _, key := range []string{"dataset " + t.s.datasetKey(), "pool " + t.s.name} {
		if locked[key] != digests[key] {
			return fmt.Errorf("input drift: %s hashes to %s, inputs.lock has %q; a generator changed under the benchmark",
				key, digests[key], locked[key])
		}
	}
	return nil
}
