package main

import (
	"math"
	"net/http"
	"reflect"
	"testing"

	"rexptree/internal/geom"
)

// A hand-checked scene: three objects reported at time 10, queried at
// times where their positions are easy to work out.
//
//	id 1: at (100,100) moving +1/min in x, expires at 50
//	id 2: at (200,100) standing still, expires at 20
//	id 3: at (150,300) moving -1/min in y, never expires
func handOracle(t *testing.T) *oracle {
	t.Helper()
	recs := []record{
		{id: 1, pos: [2]float64{100, 100}, vel: [2]float64{1, 0}, time: 10, expires: 50},
		{id: 2, pos: [2]float64{200, 100}, vel: [2]float64{0, 0}, time: 10, expires: 20},
		{id: 3, pos: [2]float64{150, 300}, vel: [2]float64{0, -1}, time: 10, expires: math.Inf(1)},
	}
	return newOracle([]batch{encodeBatch(recs)}, nil, nil)
}

func rect(x0, y0, x1, y1 float64) geom.Rect {
	return geom.Rect{Lo: geom.Vec{x0, y0}, Hi: geom.Vec{x1, y1}}
}

func TestOracleHandChecked(t *testing.T) {
	o := handOracle(t)
	cases := []struct {
		name string
		q    geom.Query
		want []uint32
	}{
		// At t=15: id 1 at (105,100), id 2 at (200,100), id 3 at (150,295).
		{"timeslice both on the x axis", geom.Timeslice(rect(90, 90, 210, 110), 15), []uint32{1, 2}},
		// At t=30 id 2 has expired (20) and id 1 is at (120,100).
		{"timeslice after an expiry", geom.Timeslice(rect(90, 90, 210, 110), 30), []uint32{1}},
		// id 1 reaches x=130 at t=40; the window [35,45] catches it.
		{"window catches a crossing", geom.Window(rect(130, 95, 140, 105), 35, 45), []uint32{1}},
		// ...but it expires at 50, before reaching x=145 at t=55.
		{"window after expiry", geom.Window(rect(145, 95, 160, 105), 50.5, 60), nil},
		// id 3 heads down to y=200 at t=110; a box moving from (140..160, 260..280)
		// at t=40 to (140..160, 160..180) at t=140 follows the track
		// (y=270 at t=40 is inside, so they meet at once).
		{"moving follows id 3", geom.Moving(rect(140, 260, 160, 280), rect(140, 160, 160, 180), 40, 140, 2), []uint32{3}},
	}
	for _, c := range cases {
		if got := o.region(c.q); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: oracle = %v, want %v", c.name, got, c.want)
		}
	}

	// Nearest at t=15 from (105,110): id 1 at distance 10, id 3 at
	// sqrt(45²+185²), id 2 at sqrt(95²+10²).
	want := []float64{10, math.Hypot(95, 10), math.Hypot(45, 185)}
	got := o.nearest(geom.Vec{105, 110}, 15, 5)
	if len(got) != 3 {
		t.Fatalf("nearest = %v, want 3 distances", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-4 {
			t.Fatalf("nearest = %v, want %v", got, want)
		}
	}
	// After id 2 expires only two qualify.
	if got := o.nearest(geom.Vec{105, 110}, 25, 5); len(got) != 2 {
		t.Fatalf("nearest at 25 = %v, want 2 distances", got)
	}
}

// The oracle stores what the server stores: the epoch representation
// quantized to float32.
func TestOracleStoredQuantizes(t *testing.T) {
	p := stored(record{id: 1, pos: [2]float64{0.1, 0.2}, vel: [2]float64{0.3, 0}, time: 2, expires: 10.1})
	if p.Pos[0] != float64(float32(0.1-0.3*2)) || p.Vel[0] != float64(float32(0.3)) || p.TExp != float64(float32(10.1)) {
		t.Fatalf("stored = %+v", p)
	}
}

// A report whose batch failed is uncertain until a later report of the
// same object is acknowledged.
func TestOracleUncertain(t *testing.T) {
	b1 := encodeBatch([]record{{id: 1, pos: [2]float64{1, 1}, time: 1, expires: 100}})
	b2 := encodeBatch([]record{{id: 1, pos: [2]float64{2, 2}, time: 2, expires: 100}, {id: 2, pos: [2]float64{3, 3}, time: 2, expires: 100}})
	b3 := encodeBatch([]record{{id: 2, pos: [2]float64{4, 4}, time: 3, expires: 100}})
	o := newOracle([]batch{b1}, []batch{b2, b3}, []int{http.StatusGatewayTimeout, http.StatusOK})
	if !o.uncertain[1] || o.uncertain[2] {
		t.Fatalf("uncertain = %v, want only id 1", o.uncertain)
	}
	if got := o.region(geom.Timeslice(rect(0, 0, 10, 10), 5)); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("region = %v, want the certain id 2 only", got)
	}
}

// Ingest lines round-trip the exact float values the oracle keeps.
func TestAppendRecordExact(t *testing.T) {
	x := 0.1
	x += 0.2 // 0.30000000000000004 at run time
	r := record{id: 7, pos: [2]float64{x, 1.0 / 3}, vel: [2]float64{-2.5e-7, 3}, time: 59.99999999, expires: math.Inf(1)}
	line := string(appendRecord(nil, r))
	want := `{"id":7,"pos":[0.30000000000000004,0.3333333333333333],"vel":[-2.5e-07,3],"time":59.99999999}` + "\n"
	if line != want {
		t.Fatalf("appendRecord = %q, want %q", line, want)
	}
}
