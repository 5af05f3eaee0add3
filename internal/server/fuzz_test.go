package server

import (
	"encoding/json"
	"math"
	"testing"

	"rexptree"
)

// finiteVec reports whether v's first dims components are finite and
// the rest zero, the only form a parsed coordinate list may take.
func finiteVec(v rexptree.Vec, dims int) bool {
	for i, c := range v {
		if i < dims && (math.IsNaN(c) || math.IsInf(c, 0)) {
			return false
		}
		if i >= dims && c != 0 {
			return false
		}
	}
	return true
}

// FuzzIngestRecord feeds one /v1/batch NDJSON line through the decode
// and conversion the ingest handler runs: arbitrary bytes must never
// panic, and every accepted report must carry exactly the index's
// dimensionality with finite position and velocity.
func FuzzIngestRecord(f *testing.F) {
	f.Add([]byte(`{"id":1,"pos":[400,620],"vel":[1,-0.5],"time":3,"expires":60}`), uint8(2))
	f.Add([]byte(`{"id":7,"pos":[1,2,3],"time":0}`), uint8(3))
	f.Add([]byte(`{"op":"delete","id":9,"time":4}`), uint8(1))
	f.Add([]byte(`{"id":2,"pos":[1e308,1e308],"vel":[1e308,-1e308],"time":1.7e308}`), uint8(2))
	f.Add([]byte(`{"id":3,"pos":[1],"vel":[1,2]}`), uint8(1))
	f.Add([]byte(`{"id":4,"pos":[NaN,1]}`), uint8(2))
	f.Fuzz(func(t *testing.T, line []byte, d uint8) {
		dims := int(d)%rexptree.MaxDims + 1
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return
		}
		p, err := rec.point(dims)
		if err != nil {
			return
		}
		if len(rec.Pos) != dims || (len(rec.Vel) != 0 && len(rec.Vel) != dims) {
			t.Fatalf("accepted pos/vel of %d/%d coordinates for %d dimensions", len(rec.Pos), len(rec.Vel), dims)
		}
		if !finiteVec(p.Pos, dims) || !finiteVec(p.Vel, dims) {
			t.Fatalf("accepted non-finite or out-of-arity report %+v from %q", p, line)
		}
	})
}

// FuzzQueryParams drives the query-string parsers: coordinate lists
// and query times, absolute or relative to the clock ("+N").  Neither
// may panic, and every accepted value must be finite — a relative time
// that overflows the clock included.
func FuzzQueryParams(f *testing.F) {
	f.Add("400,620", 3.0, uint8(2))
	f.Add("+10", 5.0, uint8(1))
	f.Add("+1.7e308", 1.7e308, uint8(2))
	f.Add("+-1.7e308", -1.7e308, uint8(2))
	f.Add("1e309", 0.0, uint8(3))
	f.Add("NaN,1", 0.0, uint8(2))
	f.Add(" 1 , 2 ,3", 0.0, uint8(3))
	f.Add("", 0.0, uint8(1))
	f.Fuzz(func(t *testing.T, s string, now float64, d uint8) {
		// The server clock is the largest ingested report time, and a
		// JSON number is always finite.
		if math.IsNaN(now) || math.IsInf(now, 0) {
			return
		}
		dims := int(d)%rexptree.MaxDims + 1
		if v, err := parseVec(s, dims); err == nil && !finiteVec(v, dims) {
			t.Fatalf("parseVec(%q, %d) accepted %v", s, dims, v)
		}
		if at, err := parseTime(s, now); err == nil && (math.IsNaN(at) || math.IsInf(at, 0)) {
			t.Fatalf("parseTime(%q, %v) accepted %v", s, now, at)
		}
	})
}
