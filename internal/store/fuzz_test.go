package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzWALDecode fuzzes the WAL payload decoder. Two properties: the decoder
// never panics or over-allocates on arbitrary bytes, and every accepted
// payload re-encodes byte-identically (the canonical-encoding identity the
// torn-tail scanner relies on).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendMutation(nil, 1, Mutation{}))
	for i := 0; i < 3; i++ {
		f.Add(appendMutation(nil, uint64(i+1), testMutation(i)))
	}
	f.Add(appendMutation(nil, 9, Mutation{Ops: []Op{{
		Kind: 1, Table: "t",
		Row: map[string]any{"a": nil, "b": "x", "c": int64(-5), "d": 1.5, "e": true, "f": false},
	}}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		gen, m, err := decodeMutation(payload)
		if err != nil {
			return
		}
		again := appendMutation(nil, gen, m)
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, again)
		}
	})
}

// FuzzFrameScan fuzzes the one frame scanner under both logs. On arbitrary
// bytes it must not panic, must stop inside the input, and whatever prefix it
// accepts must be stable: rescanning data[:validEnd] yields the same records
// with no error, and a valid frame appended there scans as one more record —
// the property recovery relies on when it truncates a torn tail and resumes
// appending. The seeds are the torn-header, torn-payload, bad-final-CRC,
// oversized-length and mid-log-corruption shapes the WAL and vector-log
// tests build by hand.
func FuzzFrameScan(f *testing.F) {
	one := appendFrame(nil, appendMutation(nil, 1, testMutation(1)))
	two := appendFrame(one, appendVector(nil, 2, []uint64{2, 1}))
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(one)+3])                                                          // torn header
	f.Add(two[:len(two)-1])                                                          // torn payload
	f.Add(append(two[:len(two)-1:len(two)-1], two[len(two)-1]^0xff))                 // bad final CRC
	f.Add(append(one[:len(one):len(one)], 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5))    // oversized length at the tail
	f.Add(append([]byte{one[0], one[1], one[2], one[3], one[4] ^ 0xff}, two[5:]...)) // corruption mid-log
	f.Fuzz(func(t *testing.T, data []byte) {
		collect := func(into *[][]byte) func(int64, []byte) error {
			return func(_ int64, payload []byte) error {
				*into = append(*into, bytes.Clone(payload))
				return nil
			}
		}
		var first [][]byte
		validEnd, records, err := scanFrames(data, collect(&first))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan error is not ErrCorrupt: %v", err)
			}
			return
		}
		if validEnd < 0 || validEnd > int64(len(data)) || records != int64(len(first)) {
			t.Fatalf("validEnd %d, records %d over %d bytes and %d callbacks", validEnd, records, len(data), len(first))
		}
		extra := []byte("one more")
		var again [][]byte
		end, n, err := scanFrames(appendFrame(data[:validEnd:validEnd], extra), collect(&again))
		if err != nil || n != records+1 || end != validEnd+frameHeaderSize+int64(len(extra)) {
			t.Fatalf("rescan of the valid prefix plus one frame = (%d, %d, %v), want %d records", end, n, err, records+1)
		}
		if !reflect.DeepEqual(again, append(first, extra)) {
			t.Fatal("rescan of the valid prefix yields different records")
		}
	})
}
