package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protocol-buffer profiles that
// runtime/pprof writes: just enough to attribute CPU samples, with
// their goroutine labels, to the layer that owns each stack.

// cpuSample is one stack's CPU time.
type cpuSample struct {
	stack  []string // function names, leaf first (inlined frames expanded)
	nanos  int64
	labels map[string]string
}

type pb struct {
	b []byte
}

var errTrunc = errors.New("profile: truncated protobuf")

func (p *pb) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTrunc
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, wire type, varint value (for
// wire type 0) or payload (for wire type 2).
func (p *pb) next() (num int, typ int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTrunc
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTrunc
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTrunc
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", typ)
	}
	return num, typ, v, data, err
}

// uints appends a repeated uint64 field that may be packed (wire type
// 2) or not (wire type 0).
func uints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	q := pb{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	p := pb{raw}
	for len(p.b) > 0 {
		num, typ, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		q := pb{data}
		switch {
		case num == 2 && typ == 2: // Sample
			var s rawSample
			for len(q.b) > 0 {
				n, t, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, t, v, d)
				case 2:
					s.vals, err = uints(s.vals, t, v, d)
				case 3:
					var kv [2]int64
					l := pb{d}
					for len(l.b) > 0 {
						ln, _, lv, _, lerr := l.next()
						if lerr != nil {
							return nil, lerr
						}
						if ln == 1 || ln == 2 {
							kv[ln-1] = int64(lv)
						}
					}
					s.labels = append(s.labels, kv)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case num == 4 && typ == 2: // Location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				n, _, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pb{d}
					for len(l.b) > 0 {
						ln, _, lv, _, lerr := l.next()
						if lerr != nil {
							return nil, lerr
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case num == 5 && typ == 2: // Function
			var id uint64
			var name int64
			for len(q.b) > 0 {
				n, _, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			funcs[id] = name
		case num == 6 && typ == 2:
			strs = append(strs, string(data))
		}
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{labels: map[string]string{}}
		if len(s.vals) > 1 {
			cs.nanos = int64(s.vals[1])
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				cs.stack = append(cs.stack, str(funcs[f]))
			}
		}
		for _, kv := range s.labels {
			cs.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuLayers are the layers CPU time is attributed to.
var cpuLayers = []string{"core", "hull", "geom", "storage", "wal", "server", "json", "obs", "net_http", "gc", "rexptree", "runtime", "other"}

// layerPrefixes maps function-name prefixes to layers, most specific
// first.
var layerPrefixes = []struct{ prefix, layer string }{
	{"rexptree/internal/core.", "core"},
	{"rexptree/internal/epoch.", "core"},
	{"rexptree/internal/hull.", "hull"},
	{"rexptree/internal/geom.", "geom"},
	{"rexptree/internal/storage.", "storage"},
	{"rexptree/internal/wal.", "wal"},
	{"rexptree/internal/server.", "server"},
	{"rexptree/internal/obs.", "obs"},
	{"rexptree/internal/", "other"},
	{"rexptree.", "rexptree"},
	{"encoding/json.", "json"},
	{"net/http.", "net_http"},
	{"net.", "net_http"},
	{"main.", "other"},
}

// gcRoots mark a stack as garbage-collector work wherever they appear.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"}

// layerOf attributes a stack's self time: GC work to gc, otherwise to
// the first frame from the leaf up that belongs to a layer, so shared
// library code (math, sort, strconv, malloc, syscalls) is charged to
// the layer that called it.  A stack with no layer frame is runtime.
func layerOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(f, lp.prefix) {
				return lp.layer
			}
		}
	}
	return "runtime"
}
