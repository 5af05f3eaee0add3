package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/workload"
)

// oracle is the brute-force answer to every query: the last
// acknowledged report of each object, stored exactly as the index
// stores it, scanned linearly with internal/geom's intersection
// semantics.
type oracle struct {
	points map[uint32]geom.MovingPoint
	// uncertain holds objects whose last report attempt failed: the
	// server may or may not have applied it, so they are left out of
	// every comparison.
	uncertain map[uint32]bool
}

// stored converts a wire report the way the server does: to the
// epoch representation (position at t = 0), then quantized to the
// float32 precision of the page format.
func stored(r record) geom.MovingPoint {
	var mp geom.MovingPoint
	for i := 0; i < 2; i++ {
		mp.Vel[i] = r.vel[i]
		mp.Pos[i] = r.pos[i] - r.vel[i]*r.time
	}
	mp.TExp = r.expires
	for i := 0; i < 2; i++ {
		mp.Pos[i] = float64(float32(mp.Pos[i]))
		mp.Vel[i] = float64(float32(mp.Vel[i]))
	}
	mp.TExp = float64(float32(mp.TExp))
	return mp
}

// newOracle replays the preload and every batch that was sent, in
// order; acked holds each sent batch's status.
func newOracle(preload, sent []batch, acked []int) *oracle {
	o := &oracle{points: map[uint32]geom.MovingPoint{}, uncertain: map[uint32]bool{}}
	apply := func(b batch, ok bool) {
		for _, r := range b.recs {
			if ok {
				o.points[r.id] = stored(r)
				delete(o.uncertain, r.id)
			} else {
				o.uncertain[r.id] = true
			}
		}
	}
	for _, b := range preload {
		apply(b, true)
	}
	for i, b := range sent {
		apply(b, acked[i] == http.StatusOK)
	}
	return o
}

// region returns the ids a region query must answer, ascending.
func (o *oracle) region(q geom.Query) []uint32 {
	var ids []uint32
	for id, p := range o.points {
		if !o.uncertain[id] && q.MatchesPoint(p, 2, true) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// dist is an object's distance from pos at time at, and whether its
// report is still valid then.
func (o *oracle) dist(id uint32, pos geom.Vec, at float64) (float64, bool) {
	p, ok := o.points[id]
	if !ok || p.TExp < at {
		return 0, false
	}
	return pos.Dist(p.At(at), 2), true
}

// nearest returns the k smallest distances from pos at time at.
func (o *oracle) nearest(pos geom.Vec, at float64, k int) []float64 {
	var ds []float64
	for id := range o.points {
		if d, ok := o.dist(id, pos, at); ok {
			ds = append(ds, d)
		}
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

// check is one verification query.
type check struct {
	kind  string
	url   string
	q     geom.Query // region queries
	pos   geom.Vec   // nearest
	at    float64
	k     int
	whole bool
}

// verificationQueries builds the gate's fixed query set at the quiet
// server clock: the whole space over a window (every live object),
// then seeded random queries of all four types with absolute times.
func verificationQueries(seed int64, clock float64, n int) []check {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := 30.0 // the generator's querying window, UI/2
	world := workload.Space
	out := []check{{kind: "window", whole: true,
		q:   geom.Window(world, clock, clock+w),
		url: "/v1/window?lo=" + vec(world.Lo) + "&hi=" + vec(world.Hi) + "&t1=" + fmtFloat(clock) + "&t2=" + fmtFloat(clock+w)}}
	side := 100.0
	rect := func() geom.Rect {
		var r geom.Rect
		for i := 0; i < 2; i++ {
			r.Lo[i] = rng.Float64() * (1000 - side)
			r.Hi[i] = r.Lo[i] + side
		}
		return r
	}
	for i := 0; i < n; i++ {
		t1 := clock + rng.Float64()*w
		t2 := t1 + rng.Float64()*w
		switch queryKinds[i%4] {
		case "timeslice":
			r := rect()
			out = append(out, check{kind: "timeslice", q: geom.Timeslice(r, t1),
				url: "/v1/timeslice?lo=" + vec(r.Lo) + "&hi=" + vec(r.Hi) + "&at=" + fmtFloat(t1)})
		case "window":
			r := rect()
			out = append(out, check{kind: "window", q: geom.Window(r, t1, t2),
				url: "/v1/window?lo=" + vec(r.Lo) + "&hi=" + vec(r.Hi) + "&t1=" + fmtFloat(t1) + "&t2=" + fmtFloat(t2)})
		case "moving":
			r1, r2 := rect(), rect()
			out = append(out, check{kind: "moving", q: geom.Moving(r1, r2, t1, t2, 2),
				url: "/v1/moving?lo1=" + vec(r1.Lo) + "&hi1=" + vec(r1.Hi) + "&lo2=" + vec(r2.Lo) + "&hi2=" + vec(r2.Hi) +
					"&t1=" + fmtFloat(t1) + "&t2=" + fmtFloat(t2)})
		default:
			pos := geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000}
			out = append(out, check{kind: "nearest", pos: pos, at: t1, k: 10,
				url: "/v1/nearest?pos=" + vec(pos) + "&k=10&at=" + fmtFloat(t1)})
		}
	}
	return out
}

// queryReply is the body of every query endpoint.
type queryReply struct {
	Now     float64 `json:"now"`
	Count   int     `json:"count"`
	Results []struct {
		ID uint32 `json:"id"`
	} `json:"results"`
}

// verify runs one check against the server and compares it with the
// oracle; a non-empty string describes a mismatch.
func (o *oracle) verify(c *http.Client, base string, ch check) (string, error) {
	b, err := httpGet(c, base+ch.url)
	if err != nil {
		return "", err
	}
	var rep queryReply
	if err := json.Unmarshal(b, &rep); err != nil {
		return "", fmt.Errorf("%s: %w", ch.url, err)
	}
	if ch.kind == "nearest" {
		want := o.nearest(ch.pos, ch.at, ch.k)
		if len(rep.Results) != len(want) {
			return fmt.Sprintf("%s: %d results, oracle %d", ch.url, len(rep.Results), len(want)), nil
		}
		for i, r := range rep.Results {
			if o.uncertain[r.ID] {
				return "", nil // an unknown report may rightly change the ranking
			}
			d, ok := o.dist(r.ID, ch.pos, ch.at)
			if !ok || !near(d, want[i]) {
				return fmt.Sprintf("%s: rank %d is id %d at %v, oracle's distance %v", ch.url, i, r.ID, d, want[i]), nil
			}
		}
		return "", nil
	}
	want := o.region(ch.q)
	var got []uint32
	for _, r := range rep.Results {
		if !o.uncertain[r.ID] {
			got = append(got, r.ID)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d results, oracle %d%s", ch.url, len(got), len(want), firstDiff(got, want)), nil
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: result sets differ%s", ch.url, firstDiff(got, want)), nil
		}
	}
	return "", nil
}

func firstDiff(got, want []uint32) string {
	in := func(xs []uint32, x uint32) bool {
		i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
		return i < len(xs) && xs[i] == x
	}
	for _, x := range got {
		if !in(want, x) {
			return fmt.Sprintf(" (server returned id %d, oracle did not)", x)
		}
	}
	for _, x := range want {
		if !in(got, x) {
			return fmt.Sprintf(" (oracle expects id %d, server omitted it)", x)
		}
	}
	return ""
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// gate lets the server go quiet, then checks a fixed query set against
// the oracle.  It reports whether every answer matched.
func (r *run) gate(base string, rep *report) (bool, error) {
	c := newClient()
	st, err := quiet(c, base)
	if err != nil {
		return false, err
	}
	o := newOracle(r.preload, r.batches[:r.nextBatch], r.acked)
	checks := verificationQueries(r.seed, st.Clock, 40)
	var mismatches []string
	for _, ch := range checks {
		msg, err := o.verify(c, base, ch)
		r.attempted++
		if err != nil {
			r.failed++
			mismatches = append(mismatches, err.Error())
			continue
		}
		if msg != "" {
			mismatches = append(mismatches, msg)
		}
	}
	rep.detail("gate", map[string]any{
		"queries": len(checks), "mismatches": mismatches, "clock": st.Clock,
		"oracle_objects": len(o.points), "uncertain_objects": len(o.uncertain),
	})
	r.log("correctness gate: %d queries at clock %.2f, %d mismatches", len(checks), st.Clock, len(mismatches))
	for _, m := range mismatches {
		r.log("  mismatch: %s", m)
	}
	return len(mismatches) == 0, nil
}

// objectReply is the body of GET /v1/object.
type objectReply struct {
	ID      uint32    `json:"id"`
	Pos     []float64 `json:"pos"`
	Vel     []float64 `json:"vel"`
	Time    float64   `json:"time"`
	Expires float64   `json:"expires"`
}

// readBack fetches every object the oracle holds valid at now with GET
// /v1/object over two connections and returns the mismatches.
func (o *oracle) readBack(base string, now float64) (checked int, bad []string, err error) {
	var ids []uint32
	for id, p := range o.points {
		if !o.uncertain[id] && p.TExp >= now {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	const conns = 2
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			for i := w; i < len(ids); i += conns {
				id := ids[i]
				msg, err := o.readOne(c, base, id, now)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if msg != "" && len(bad) < 20 {
					bad = append(bad, msg)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return len(ids), bad, firstErr
}

func (o *oracle) readOne(c *http.Client, base string, id uint32, now float64) (string, error) {
	u := base + "/v1/object?id=" + fmt.Sprint(id) + "&now=" + url.QueryEscape(fmtFloat(now))
	resp, err := c.Get(u)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Sprintf("object %d: acked and valid at %v but not found", id, now), nil
	}
	var got objectReply
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return "", fmt.Errorf("object %d: %w", id, err)
	}
	p := o.points[id]
	at := p.At(now)
	if len(got.Pos) != 2 || len(got.Vel) != 2 || !near(got.Pos[0], at[0]) || !near(got.Pos[1], at[1]) ||
		!near(got.Vel[0], p.Vel[0]) || !near(got.Vel[1], p.Vel[1]) || !near(got.Expires, p.TExp) {
		return fmt.Sprintf("object %d: got pos %v vel %v expires %v, oracle pos %v vel %v expires %v",
			id, got.Pos, got.Vel, got.Expires, at[:2], p.Vel[:2], p.TExp), nil
	}
	return "", nil
}

// crashCheck SIGKILLs the durable daemon, restarts it on the same path,
// times recovery up to a healthy /healthz, and reads back every acked,
// unexpired report.  The kill leaves the OS page cache intact, so this
// checks the WAL and checkpoint recovery logic, not device flushes.
func (r *run) crashCheck(bin string, d *daemon, idx string, rep *report) (bool, error) {
	c := newClient()
	st, err := fetchStats(c, d.base)
	if err != nil {
		d.kill()
		return false, err
	}
	d.kill()
	t0 := time.Now()
	d2, err := startDaemon(bin, r.spec.rexpdFlags(idx))
	if err != nil {
		return false, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer d2.stop()
	c = newClient()
	for {
		if _, err := httpGet(c, d2.base+"/healthz"); err == nil {
			break
		}
		if time.Since(t0) > time.Minute {
			return false, fmt.Errorf("rexpd not healthy within a minute of restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recovery := time.Since(t0).Seconds()
	o := newOracle(r.preload, r.batches[:r.nextBatch], r.acked)
	t1 := time.Now()
	n, bad, err := o.readBack(d2.base, st.Clock)
	if err != nil {
		return false, err
	}
	r.attempted += n
	rep.detail("durability", map[string]any{
		"recovery_s": recovery, "objects_read_back": n, "mismatches": bad, "read_back_s": time.Since(t1).Seconds(),
		"note": "SIGKILL keeps the OS page cache: this checks recovery logic, not device flushes",
	})
	r.log("durability: SIGKILL + restart healthy in %.3f s; %d acked unexpired reports read back in %.1f s, %d mismatches",
		recovery, n, time.Since(t1).Seconds(), len(bad))
	r.log("  (SIGKILL keeps the OS page cache: this checks recovery logic, not device flushes)")
	for _, m := range bad {
		r.log("  mismatch: %s", m)
	}
	return len(bad) == 0, nil
}
