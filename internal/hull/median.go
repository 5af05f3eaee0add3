package hull

import "rexptree/internal/geom"

// polyMul multiplies polynomial p (coefficients by ascending power)
// by the linear factor (h + w·τ).
func polyMul(p []float64, h, w float64) []float64 {
	return polyMulInto(make([]float64, len(p)+1), p, h, w)
}

// polyMulInto is polyMul into out, which must hold len(p)+1 zeros.
func polyMulInto(out, p []float64, h, w float64) []float64 {
	for i, c := range p {
		out[i] += c * h
		out[i+1] += c * w
	}
	return out
}

// median implements Lemma 4.2: given the extent polynomials of the
// already-computed dimensions — extents h[k] + w[k]·τ at the
// computation time — it returns the median position m in (0, Φ) at
// which the bridge for the next dimension must be found.
//
// With no computed dimensions the hyper-volume polynomial is the
// constant 1 and m = Φ/2, recovering Lemma 4.1.
func median(h, w []float64, phi float64) float64 {
	// The product polynomials alternate between two stack buffers,
	// which hold the at most MaxDims-1 factors of a bounding rectangle.
	var buf [2][geom.MaxDims + 1]float64
	buf[0][0] = 1
	c := buf[0][:1]
	for k := range h {
		var out []float64
		if len(c) < len(buf[0]) {
			out = buf[(k+1)%2][:len(c)+1]
			clear(out)
		} else {
			out = make([]float64, len(c)+1)
		}
		c = polyMulInto(out, c, h[k], w[k])
	}
	var num, den float64
	pw := phi // Φ^(i+1)
	for i, ci := range c {
		num += ci * pw * phi / float64(i+2)
		den += ci * pw / float64(i+1)
		pw *= phi
	}
	if den == 0 {
		return phi / 2
	}
	m := num / den
	if m < 0 {
		m = 0
	}
	if m > phi {
		m = phi
	}
	return m
}
