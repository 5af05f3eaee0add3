package main

import (
	"testing"
	"time"
)

// A stall delays every request scheduled behind it, and each one's
// latency is charged from its due time, not from when it was sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	s := schedule{start: time.Now(), rate: 100, end: 200 * time.Millisecond, cut: 5 * time.Second}
	var positions []int
	outs, aborted := s.run(7, func(i int, o *outcome) {
		positions = append(positions, i)
		if i == 7 {
			time.Sleep(stall) // the first request stalls the connection
		}
		o.status = 200
	})
	if aborted {
		t.Fatal("aborted without an abort lag")
	}
	if len(outs) != 20 {
		t.Fatalf("%d requests, want 20 (100/s for 200ms)", len(outs))
	}
	for i, p := range positions {
		if p != 7+i {
			t.Fatalf("request %d sent as stream position %d, want %d", i, p, 7+i)
		}
	}
	for i, o := range outs {
		if want := time.Duration(i) * 10 * time.Millisecond; o.due != want {
			t.Fatalf("request %d due at %v, want %v", i, o.due, want)
		}
		if o.sent < o.due {
			t.Fatalf("request %d sent at %v before its due time %v", i, o.sent, o.due)
		}
	}
	// Requests due during the stall were sent late; their latency
	// includes the wait, while the send-to-response time does not.
	second := outs[1]
	if second.sent-second.due < stall/2 {
		t.Fatalf("second request sent %v after due, want the stall's delay", second.sent-second.due)
	}
	if lat := second.latencyMs(); lat < float64(stall/2)/1e6 {
		t.Fatalf("second request latency %.2f ms, want >= %.2f ms (from due)", lat, float64(stall/2)/1e6)
	}
	if service := second.done - second.sent; service > stall/2 {
		t.Fatalf("second request took %v to serve; the test expects a fast send", service)
	}
	// After the stall the sender catches up with the schedule.
	last := outs[len(outs)-1]
	if late := last.sent - last.due; late > 5*time.Millisecond {
		t.Fatalf("last request %v late, want the sender caught up", late)
	}
}

// A sender that falls behind by more than abortLag gives up, and the
// requests it never sent are recorded with their latency so far.
func TestOpenLoopAbort(t *testing.T) {
	s := schedule{start: time.Now(), rate: 1000, end: 300 * time.Millisecond, cut: time.Second, abortLag: 20 * time.Millisecond}
	outs, aborted := s.run(0, func(i int, o *outcome) {
		time.Sleep(5 * time.Millisecond) // 200/s against 1000/s offered
		o.status = 200
	})
	if !aborted {
		t.Fatal("overloaded schedule did not abort")
	}
	st := reduce(outs)
	if st.unsent == 0 || st.attempted == 0 || len(outs) >= 300 {
		t.Fatalf("unsent %d attempted %d of 300 scheduled", st.unsent, st.attempted)
	}
	if oldest := outs[st.attempted]; !oldest.unsent || oldest.done-oldest.due < 20*time.Millisecond {
		t.Fatalf("oldest unsent request %+v: want it recorded after waiting past the abort lag", oldest)
	}
	for _, o := range outs {
		if o.unsent && o.done < o.due {
			t.Fatalf("unsent request due %v recorded done %v: not yet due when the sender gave up", o.due, o.done)
		}
	}
}

func TestResultCount(t *testing.T) {
	if n := resultCount([]byte(`{"now":1.5,"count":42,"results":[]}`)); n != 42 {
		t.Fatalf("resultCount = %d", n)
	}
	if n := resultCount([]byte(`{"error":"x"}`)); n != 0 {
		t.Fatalf("resultCount = %d", n)
	}
}
