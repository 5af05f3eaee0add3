package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// A nearest query at "+0" asks about the server clock at the moment the
// request arrives, which the API accepts however much ingest runs
// beside it.  rexpd resolves "+0" against its clock, but each shard
// then checks the query time against its own clock, which a concurrent
// /v1/batch may already have moved on; the query fails with a 400
// ("nearest query time … precedes current time …").  Timeslice queries
// at the same time never fail this way.  This test fails until rexpd
// resolves and checks the query time against one clock; the timed
// workloads ask nearest queries nearestLead ahead for that reason.
func TestNearestAtClockUnderIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("drives an in-process server for a few seconds")
	}
	spec := *workloads[0]
	spec.Objects = 2000
	h, err := openHost(&spec, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	r, err := newRun(&spec, 1, 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	r.connect(h.base)
	if err := r.load(); err != nil {
		t.Fatal(err)
	}
	const batches = 600
	if err := r.ensureBatches(batches); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < batches && !stop.Load(); i++ {
			var o outcome
			r.ingest.postBatch(i, r.batches[i].body, &o)
			if !o.ok() {
				t.Errorf("batch %d: %s", i, r.ingest.failure)
				return
			}
		}
	}()
	var queries, rejected int
	var first string
	for !stop.Load() {
		var o outcome
		r.reader.getQuery(queries, "/v1/nearest?pos=500,500&k=10&at=%2B0", &o)
		queries++
		if o.ok() {
			continue
		}
		if !strings.Contains(r.reader.failure, "precedes current time") {
			stop.Store(true)
			t.Errorf("query %d: %s", queries, r.reader.failure)
			break
		}
		if rejected++; first == "" {
			first = r.reader.failure
		}
	}
	stop.Store(true)
	wg.Wait()
	if rejected > 0 {
		t.Errorf("%d of %d nearest queries at +0 were rejected during ingest; first: %s", rejected, queries, first)
	}
}
