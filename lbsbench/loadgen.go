package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// outcome is one scheduled request.  Times are offsets from the
// phase's start; latency runs from due (when the schedule wanted the
// request sent), not from sent, so a stall is charged to every request
// it delays (no coordinated omission).
type outcome struct {
	due, sent, done time.Duration
	status          int  // HTTP status; 0 on a transport error or when never sent
	unsent          bool // still waiting to be sent when the phase was cut
	pos             int  // the request's position in its stream
	results         int  // queries: result count
}

func (o outcome) ok() bool { return o.status == http.StatusOK }

// latencyMs is the request's latency from its due time, in ms.  A
// request never sent counts as late as the moment the phase gave up.
func (o outcome) latencyMs() float64 { return float64(o.done-o.due) / 1e6 }

// sendFunc performs request number i of a stream and fills status and
// results.
type sendFunc func(i int, o *outcome)

// schedule is one open-loop phase of a stream: request i is due at
// start + i/rate for every due time before end.  The sender works
// through the schedule on one connection; when it falls behind it
// sends back to back.  It stops sending at cut (end plus a grace
// period), or as soon as it runs more than abortLag behind when
// abortLag > 0; the requests then due but unsent are recorded as
// unsent, and those not yet due are dropped.
type schedule struct {
	start    time.Time
	rate     float64
	end      time.Duration
	cut      time.Duration
	abortLag time.Duration
}

// run executes the schedule.  first is the stream position of request
// 0, so consecutive phases continue one stream.
func (s schedule) run(first int, send sendFunc) (outs []outcome, aborted bool) {
	n := int(s.rate * s.end.Seconds())
	outs = make([]outcome, 0, n)
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / s.rate * 1e9)
		if due >= s.end {
			return outs, aborted
		}
		now := time.Since(s.start)
		if wait := due - now; wait > 0 {
			sleep(wait)
			now = time.Since(s.start)
		}
		if now > s.cut || (s.abortLag > 0 && now-due > s.abortLag) {
			// Give up; the backlog (requests already due) is recorded
			// as unsent with its wait so far.
			aborted = now <= s.cut
			for ; due < s.end && due <= now; i++ {
				outs = append(outs, outcome{due: due, sent: now, done: now, unsent: true})
				due = time.Duration(float64(i+1) / s.rate * 1e9)
			}
			return outs, aborted
		}
		o := outcome{due: due, sent: now, pos: first + i}
		send(first+i, &o)
		o.done = time.Since(s.start)
		outs = append(outs, o)
	}
}

// sleep waits d with nanosleep(2): the runtime timer wheel rounds
// sub-millisecond sleeps up to about a millisecond, which would make
// the generator itself late at query rates of 1k/s.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// newClient returns an HTTP client held to a single connection, so
// each stream's requests reach the server in order and the generator
// uses no more connections than the host has CPUs.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// sender holds one stream's connection and response buffer.
type sender struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
	// failure describes the last request's failure ("" after a success).
	failure string
	// tag, when set, names each request in a reqHeader header (its
	// class letter and stream position) so the traced run can link the
	// server's span to the client's.
	tag byte
}

// reqHeader carries a request's stream position in the traced run.
const reqHeader = "X-Lbsbench-Req"

// postBatch sends ingest body number i and records the status.
func (s *sender) postBatch(i int, body []byte, o *outcome) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	s.do(i, req, o)
}

// getQuery sends query number i and records status and result count.
func (s *sender) getQuery(i int, url string, o *outcome) {
	req, err := http.NewRequest(http.MethodGet, s.base+url, nil)
	if err != nil {
		return
	}
	s.do(i, req, o)
	if o.ok() {
		o.results = resultCount(s.buf.Bytes())
	}
}

func (s *sender) do(i int, req *http.Request, o *outcome) {
	if s.tag != 0 {
		req.Header.Set(reqHeader, string(s.tag)+strconv.Itoa(i))
	}
	s.failure = ""
	resp, err := s.client.Do(req)
	if err != nil {
		s.failure = fmt.Sprintf("%s %s: %v", req.Method, req.URL.RequestURI(), err)
		return
	}
	s.buf.Reset()
	_, err = io.Copy(&s.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		s.failure = fmt.Sprintf("%s %s: reading the response: %v", req.Method, req.URL.RequestURI(), err)
		return
	}
	o.status = resp.StatusCode
	if !o.ok() {
		s.failure = fmt.Sprintf("%s %s: %s: %.200s", req.Method, req.URL.RequestURI(), resp.Status, bytes.TrimSpace(s.buf.Bytes()))
	}
}

// resultCount extracts "count" from a query response without decoding
// the result rows.
func resultCount(body []byte) int {
	i := bytes.Index(body, []byte(`"count":`))
	if i < 0 {
		return 0
	}
	rest := body[i+len(`"count":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(rest[:j]))
	return n
}

// streamStats reduces a phase's outcomes.
type streamStats struct {
	lat       summary
	attempted int
	failed    int
	unsent    int
	lagMs     []float64
	results   int
	completed int
	serviceMs float64 // mean send-to-response time of completed requests
}

func reduce(outs []outcome) streamStats {
	var st streamStats
	lat := make([]float64, 0, len(outs))
	for _, o := range outs {
		lat = append(lat, o.latencyMs())
		if o.unsent {
			st.unsent++
			continue
		}
		st.attempted++
		st.lagMs = append(st.lagMs, float64(o.sent-o.due)/1e6)
		if !o.ok() {
			st.failed++
			continue
		}
		st.completed++
		st.results += o.results
		st.serviceMs += float64(o.done-o.sent) / 1e6
	}
	st.serviceMs = ratio(st.serviceMs, float64(st.completed))
	st.lat = summarize(lat)
	return st
}
