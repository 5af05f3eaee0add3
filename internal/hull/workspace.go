package hull

import (
	"math"
	"math/bits"
	"slices"

	"rexptree/internal/geom"
)

// Workspace owns the scratch buffers of the bounding-rectangle
// computations: the expiry order that all dimensions of a near-optimal
// TPBR share, and the upper and lower hull chains of one dimension.
// Recomputing the TPBR of every modified node is the engine's hottest
// path, so the tree keeps one Workspace and a warm one allocates
// nothing.  The zero value is ready to use.  A Workspace must not be
// used by two computations at once.
type Workspace struct {
	keys     []uint64 // packed (expiry, index) sort keys
	byExp    []expKey // unexpired finite-expiry items by ascending expiry
	upH, loH []pt     // the current dimension's hull chains
}

// expKey is one item in the shared expiry order: its expiration time,
// that time relative to t_upd, and its index.
type expKey struct {
	texp, tau float64
	i         int32
}

// Compute is the package-level Compute running through ws.
func (ws *Workspace) Compute(kind Kind, items []geom.TPRect, tupd, horizon float64, dims int, world geom.Rect, order []int) geom.TPRect {
	switch kind {
	case KindStatic:
		return Static(items, tupd, dims, world)
	case KindUpdateMinimum:
		return UpdateMinimum(items, tupd, dims)
	case KindNearOptimal:
		return ws.NearOptimal(items, tupd, horizon, dims, order)
	case KindOptimal:
		return Optimal(items, tupd, horizon, dims)
	default:
		return Conservative(items, tupd, dims)
	}
}

// NearOptimal is the package-level NearOptimal running through ws.
// The expiry order is sorted once and shared by every dimension, and
// each dimension's endpoints are pushed straight onto its hull chains
// in that order, so no per-dimension point list is built or sorted.
func (ws *Workspace) NearOptimal(items []geom.TPRect, tupd, horizon float64, dims int, order []int) geom.TPRect {
	texp := maxExp(items)
	phi := effPhi(texp, tupd, horizon)
	byExp := ws.sortExpiries(items, tupd)

	var lo, hi, vlo, vhi geom.Vec
	var hs, wd [geom.MaxDims]float64
	computed := 0
	for _, d := range order {
		xmax, xmin := math.Inf(-1), math.Inf(1)
		minUp, maxLo := math.Inf(-1), math.Inf(1)
		for i := range items {
			it := &items[i]
			if h := it.Hi[d] + it.VHi[d]*tupd; h > xmax {
				xmax = h
			}
			if l := it.Lo[d] + it.VLo[d]*tupd; l < xmin {
				xmin = l
			}
			if !geom.IsFinite(it.TExp) {
				minUp = math.Max(minUp, it.VHi[d])
				maxLo = math.Min(maxLo, it.VLo[d])
			}
		}
		up := append(ws.upH[:0], pt{0, xmax})
		down := append(ws.loH[:0], pt{0, xmin})
		for _, k := range byExp {
			it := &items[k.i]
			up = pushUpper(up, pt{k.tau, it.Hi[d] + it.VHi[d]*k.texp})
			down = pushLower(down, pt{k.tau, it.Lo[d] + it.VLo[d]*k.texp})
		}
		ws.upH, ws.loH = up, down
		m := median(hs[:computed], wd[:computed], phi)
		u := upperBridgeHull(up, m, minUp)
		l := lowerBridgeHull(down, m, maxLo)
		lo[d], vlo[d] = l.a, l.b
		hi[d], vhi[d] = u.a, u.b
		hs[computed] = u.a - l.a
		wd[computed] = u.b - l.b
		computed++
	}
	return geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, texp, dims)
}

// sortExpiries returns the items whose expiry is finite and later than
// tupd, in ascending expiry order.  The sort runs on integers: each key
// is the order-preserving bit pattern of TExp with its low bits
// replaced by the item index.  That truncation can only misorder
// expiries that agree in every other bit, so one insertion pass over
// the exact values repairs the order.  Equal expiries may come out in
// any order; the hull chains keep only the extreme endpoint per τ.
func (ws *Workspace) sortExpiries(items []geom.TPRect, tupd float64) []expKey {
	mask := uint64(1)<<bits.Len(uint(len(items))) - 1
	keys := ws.keys[:0]
	for i := range items {
		if e := items[i].TExp; geom.IsFinite(e) && e > tupd {
			keys = append(keys, orderedBits(e)&^mask|uint64(i))
		}
	}
	slices.Sort(keys)
	byExp := ws.byExp[:0]
	for _, key := range keys {
		i := int32(key & mask)
		e := items[i].TExp
		byExp = append(byExp, expKey{e, e - tupd, i})
		for j := len(byExp) - 1; j > 0 && byExp[j-1].texp > byExp[j].texp; j-- {
			byExp[j-1], byExp[j] = byExp[j], byExp[j-1]
		}
	}
	ws.keys, ws.byExp = keys, byExp
	return byExp
}

// orderedBits maps a float64 to a uint64 whose unsigned order is the
// float's numeric order (NaN aside).
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
