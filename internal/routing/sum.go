package routing

import (
	"math"
	"math/bits"
)

// repeatMin is the shortest chain addN hands to addRepeated: below it the
// plain loop is faster than the kernel's set-up.
const repeatMin = 32

// addN returns x with s added to it c times, one rounded addition after
// another: a short chain in a plain loop, a long one through addRepeated.
//
//selfmaint:hotpath
func addN(x, s float64, c int) float64 {
	if c >= repeatMin {
		return addRepeated(x, s, c)
	}
	for ; c > 0; c-- {
		x += s
	}
	return x
}

// addRepeated returns bit for bit what c sequential round-to-nearest-even
// additions of s to x give, in O(log c) steps.
//
// Write x = m·u, with u the spacing (ulp) of x's binade — the floats in
// [2^E, 2^(E+1)) — and m an integer in [2^52, 2^53), and let q = s/u,
// exact since u is a power of two. While the sum stays in the binade each
// addition rounds m+q to an integer, and because m is an integer that
// adds r = round(q) ulps every time, independent of m — unless q is a tie
// (fractional part exactly ½), which rounds to the even neighbour. From an
// even m a tie adds r = ⌊q⌋ + (⌊q⌋ & 1) ulps, an even count, so m stays
// even; an odd m takes one plain addition first. So t = min(c, ⌊(2^53−1−m)/r⌋)
// additions collapse to m += t·r, and one plain addition then crosses into
// the next binade, where q halves. r = 0 (s below half an ulp, or exactly
// half from an even m) means every addition rounds back to x: x is
// returned as it is, as it is when a plain addition leaves x's bits
// unchanged (+Inf).
//
// Short counts, a share that is not positive, normal and finite, and a sum
// that is negative or not finite take the plain loop. A zero or subnormal
// sum, and a share at least x's binade, take plain additions until the
// share falls below the binade of the growing sum.
//
//selfmaint:hotpath
func addRepeated(x, s float64, c int) float64 {
	if s >= 0x1p-1022 && s <= math.MaxFloat64 && x >= 0 && x <= math.MaxFloat64 {
		for c >= repeatMin {
			b := math.Float64bits(x)
			e := b >> 52 // biased exponent; x ≥ 0, so the sign bit is clear
			if e < 0x7ff && s < math.Float64frombits(e<<52) {
				m := b&(1<<52-1) | 1<<52
				q := inUlps(s, e)
				f := math.Floor(q)
				r, frac := uint64(f), q-f
				if frac > 0.5 {
					r++
				} else if frac == 0.5 {
					r += r & 1
				}
				if frac != 0.5 || m&1 == 0 {
					if r == 0 {
						return x // stalled: s is at most half an ulp
					}
					// t = min(c, ⌊room/r⌋), dividing only when the chain
					// leaves the binade.
					room, t := 1<<53-1-m, uint64(c)
					if hi, lo := bits.Mul64(t, r); hi != 0 || lo > room {
						t = room / r
					}
					if t > 0 {
						x = math.Float64frombits(e<<52 | (m+t*r)&(1<<52-1))
						c -= int(t)
						continue
					}
				}
			}
			// One plain addition: s is not below x's binade, the next
			// addition leaves the binade, or a tie waits for an even m.
			y := x + s
			c--
			if math.Float64bits(y) == b {
				return x
			}
			x = y
		}
	}
	for ; c > 0; c-- {
		x += s
	}
	return x
}

// inUlps returns s/u, s counted in ulps u = 2^(e−1075) of the binade whose
// biased exponent is e (1 ≤ e < 0x7ff). From e = 52 up, 1/u is a normal
// float and s is multiplied by it; below, u is a subnormal power of two and
// s is divided by it. Scaling by a power of two is exact while the result
// is normal, and a result below the normal range is far below ½ — a stall —
// however it rounds.
func inUlps(s float64, e uint64) float64 {
	if e >= 52 {
		return s * math.Float64frombits((2098-e)<<52) // 2^(1075−e)
	}
	return s / math.Float64frombits(1<<(e-1)) // 2^(e−1075), subnormal
}

// repeatSum is a total whose additions arrive in stretches of one value. It
// holds back the current stretch — its value and its length — and adds it
// through addN when a different value arrives or the total is read, so the
// total receives the same additions in the same order as one by one.
// Values are compared by their bits, so a held-back stretch is exactly one
// repeated addition.
type repeatSum struct {
	total float64
	v     float64 // the held-back value
	c     int     // its held-back additions
}

// add appends c additions of v.
//
//selfmaint:hotpath
func (p *repeatSum) add(v float64, c int) {
	if math.Float64bits(v) != math.Float64bits(p.v) {
		p.hold(v)
	}
	p.c += c
}

// hold applies the held-back stretch and starts one of v.
//
//selfmaint:hotpath
func (p *repeatSum) hold(v float64) {
	p.total = addN(p.total, p.v, p.c)
	p.v, p.c = v, 0
}

// sum returns the total with every held-back addition applied.
//
//selfmaint:hotpath
func (p *repeatSum) sum() float64 {
	p.total = addN(p.total, p.v, p.c)
	p.c = 0
	return p.total
}
