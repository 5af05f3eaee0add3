package main

import (
	"fmt"
	"strconv"

	"rexptree/internal/geom"
	"rexptree/internal/workload"
)

// record is one position report exactly as it goes on the wire: the
// position at time, the velocity, and the absolute expiration time.
// The oracle keeps these values, so it sees what the server parsed.
type record struct {
	id            uint32
	pos, vel      [2]float64
	time, expires float64
}

// batch is one pre-encoded POST /v1/batch body.
type batch struct {
	body []byte
	recs []record
}

// queryKinds lists the query classes in report order.
var queryKinds = []string{"timeslice", "window", "moving", "nearest"}

// source turns the paper's §5.1 network-scenario generator into request
// bodies.  Reports come from one generator stream; queries from a
// second generator with the same seed (hence the same road network)
// that emits a query after every report, so the query pool is as large
// as needed whatever the report-to-query ratio of the workload.
type source struct {
	spec *workloadSpec
	gen  *workload.Generator
	ui   float64
}

func newSource(spec *workloadSpec, seed int64) (*source, error) {
	g, err := workload.NewGenerator(spec.params(seed))
	if err != nil {
		return nil, err
	}
	return &source{spec: spec, gen: g, ui: g.Params().UI}, nil
}

// next returns the stream's next report.
func (s *source) next() (record, error) {
	for {
		op, ok := s.gen.Next()
		if !ok {
			return record{}, fmt.Errorf("workload %s: report stream exhausted (raise Insertions)", s.spec.Name)
		}
		if op.Kind != workload.OpInsert {
			continue // an update replaces the object's report; the delete half is implicit
		}
		at := op.Point.At(op.Time)
		return record{
			id:      op.OID,
			pos:     [2]float64{at[0], at[1]},
			vel:     [2]float64{op.Point.Vel[0], op.Point.Vel[1]},
			time:    op.Time,
			expires: op.Point.TExp,
		}, nil
	}
}

// preload returns the first report of every object that reports
// during the first update interval (every initial object does), as
// bodies of at most chunk records.  Repeat reports inside the interval
// are left out, so set-up loads each object once.
func (s *source) preload(chunk int) ([]batch, error) {
	var out []batch
	var cur []record
	seen := map[uint32]bool{}
	for {
		r, err := s.next()
		if err != nil {
			return nil, err
		}
		if r.time >= s.ui {
			// Hand the first report past the interval to the timed phase.
			if !seen[r.id] {
				cur = append(cur, r)
			}
			if len(cur) > 0 {
				out = append(out, encodeBatch(cur))
			}
			return out, nil
		}
		if seen[r.id] {
			continue
		}
		seen[r.id] = true
		cur = append(cur, r)
		if len(cur) == chunk {
			out = append(out, encodeBatch(cur))
			cur = nil
		}
	}
}

// batches returns the next n batches of size reports each.
func (s *source) batches(n, size int) ([]batch, error) {
	out := make([]batch, 0, n)
	for i := 0; i < n; i++ {
		recs := make([]record, size)
		for j := range recs {
			r, err := s.next()
			if err != nil {
				return nil, err
			}
			recs[j] = r
		}
		out = append(out, encodeBatch(recs))
	}
	return out, nil
}

func encodeBatch(recs []record) batch {
	buf := make([]byte, 0, len(recs)*128)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return batch{body: buf, recs: recs}
}

// appendRecord encodes one NDJSON ingest line.  Floats use the shortest
// exact form, so the server parses back the very values the oracle
// keeps.
func appendRecord(buf []byte, r record) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendUint(buf, uint64(r.id), 10)
	buf = append(buf, `,"pos":[`...)
	buf = appendFloat(buf, r.pos[0])
	buf = append(buf, ',')
	buf = appendFloat(buf, r.pos[1])
	buf = append(buf, `],"vel":[`...)
	buf = appendFloat(buf, r.vel[0])
	buf = append(buf, ',')
	buf = appendFloat(buf, r.vel[1])
	buf = append(buf, `],"time":`...)
	buf = appendFloat(buf, r.time)
	if geom.IsFinite(r.expires) {
		buf = append(buf, `,"expires":`...)
		buf = appendFloat(buf, r.expires)
	}
	return append(buf, "}\n"...)
}

func appendFloat(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// queryPool draws n queries from the workload's query mix: the
// generator's timeslice/window/moving draw (0.6/0.2/0.2, §5.1), with
// every nearestEvery-th query replaced by a k-nearest query at the
// drawn rectangle's centre, asked nearestLead later than the drawn
// time.  Times become "+N" offsets from the generator's current time,
// resolved against the server clock when the request arrives.
func queryPool(spec *workloadSpec, seed int64, n int) ([]string, error) {
	p := spec.params(seed)
	p.QueriesPerInsertions = 1
	g, err := workload.NewGenerator(p)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for len(out) < n {
		op, ok := g.Next()
		if !ok {
			return nil, fmt.Errorf("workload %s: query stream exhausted", spec.Name)
		}
		if op.Kind != workload.OpQuery {
			continue
		}
		q := op.Query
		rel := func(t float64) string { return "%2B" + fmtFloat(t-op.Time) }
		r1, r2 := q.Region.At(q.T1), q.Region.At(q.T2)
		if len(out)%nearestEvery == nearestEvery-1 {
			c := r1.Center(2)
			out = append(out, "/v1/nearest?pos="+vec(c)+"&k="+strconv.Itoa(nearestK)+"&at="+rel(q.T1+nearestLead))
			continue
		}
		var url string
		switch workload.KindOfQuery(q) {
		case "timeslice":
			url = "/v1/timeslice?lo=" + vec(r1.Lo) + "&hi=" + vec(r1.Hi) + "&at=" + rel(q.T1)
		case "window":
			url = "/v1/window?lo=" + vec(r1.Lo) + "&hi=" + vec(r1.Hi) + "&t1=" + rel(q.T1) + "&t2=" + rel(q.T2)
		default:
			url = "/v1/moving?lo1=" + vec(r1.Lo) + "&hi1=" + vec(r1.Hi) +
				"&lo2=" + vec(r2.Lo) + "&hi2=" + vec(r2.Hi) + "&t1=" + rel(q.T1) + "&t2=" + rel(q.T2)
		}
		out = append(out, url)
	}
	return out, nil
}

func vec(v geom.Vec) string { return fmtFloat(v[0]) + "," + fmtFloat(v[1]) }
