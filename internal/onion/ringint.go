package onion

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// RingInt is a 160-bit unsigned integer: the arithmetic domain of the
// HSDir ring. Fingerprints and descriptor IDs are 160-bit values and
// "distance" between them is subtraction mod 2^160.
//
// It is a value type backed by three big-endian uint64 limbs — the value
// is l[0]<<128 | l[1]<<64 | l[2], with l[0] < 2^32 — so the arithmetic in
// the tracking-detection inner loop is word-wise and allocation-free.
type RingInt struct {
	l [3]uint64
}

// hiMask truncates the top limb to the 32 bits that exist in a 160-bit
// value.
const hiMask = 1<<32 - 1

func ringIntFromBytes(src []byte) RingInt {
	var b [20]byte
	copy(b[20-len(src):], src)
	return ringIntFrom20(b)
}

func ringIntFrom20(b [20]byte) RingInt {
	return RingInt{l: [3]uint64{
		uint64(binary.BigEndian.Uint32(b[0:4])),
		binary.BigEndian.Uint64(b[4:12]),
		binary.BigEndian.Uint64(b[12:20]),
	}}
}

// RingIntFromFingerprint converts a fingerprint to its ring integer.
func RingIntFromFingerprint(f Fingerprint) RingInt { return ringIntFrom20(f) }

// RingIntFromDescriptorID converts a descriptor ID to its ring integer.
func RingIntFromDescriptorID(d DescriptorID) RingInt { return ringIntFrom20(d) }

// SubMod returns (r - other) mod 2^160.
func (r RingInt) SubMod(other RingInt) RingInt {
	lo, borrow := bits.Sub64(r.l[2], other.l[2], 0)
	mid, borrow := bits.Sub64(r.l[1], other.l[1], borrow)
	hi, _ := bits.Sub64(r.l[0], other.l[0], borrow)
	return RingInt{l: [3]uint64{hi & hiMask, mid, lo}}
}

// Add returns (r + other) mod 2^160.
func (r RingInt) Add(other RingInt) RingInt {
	lo, carry := bits.Add64(r.l[2], other.l[2], 0)
	mid, carry := bits.Add64(r.l[1], other.l[1], carry)
	hi, _ := bits.Add64(r.l[0], other.l[0], carry)
	return RingInt{l: [3]uint64{hi & hiMask, mid, lo}}
}

// DivScalar returns r / n (integer division) for n > 0; n == 0 yields
// zero.
func (r RingInt) DivScalar(n uint64) RingInt {
	if n == 0 {
		return RingInt{}
	}
	// Limb-wise long division; each partial remainder is < n, so
	// bits.Div64 never overflows.
	q0, rem := bits.Div64(0, r.l[0], n)
	q1, rem := bits.Div64(rem, r.l[1], n)
	q2, _ := bits.Div64(rem, r.l[2], n)
	return RingInt{l: [3]uint64{q0, q1, q2}}
}

// MulScalar returns (r * n) mod 2^160.
func (r RingInt) MulScalar(n uint64) RingInt {
	c2, lo := bits.Mul64(r.l[2], n)
	c1, mid := bits.Mul64(r.l[1], n)
	mid, carry := bits.Add64(mid, c2, 0)
	hi := r.l[0]*n + c1 + carry
	return RingInt{l: [3]uint64{hi & hiMask, mid, lo}}
}

// bytes20 returns the big-endian byte representation.
func (r RingInt) bytes20() [20]byte {
	var b [20]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(r.l[0]))
	binary.BigEndian.PutUint64(b[4:12], r.l[1])
	binary.BigEndian.PutUint64(b[12:20], r.l[2])
	return b
}

// Fingerprint converts the ring integer back to a fingerprint.
func (r RingInt) Fingerprint() Fingerprint { return Fingerprint(r.bytes20()) }

// MaxRingAvgGap returns 2^160 / n as a RingInt: the expected gap between
// consecutive fingerprints on a uniform ring of n members, truncated to
// 160 bits (so n == 1 yields zero, as does n == 0).
func MaxRingAvgGap(n uint64) RingInt {
	if n == 0 {
		return RingInt{}
	}
	// 2^160 is the 192-bit value with limbs {1<<32, 0, 0}; long-divide and
	// truncate the quotient's top limb to 32 bits.
	q0, rem := bits.Div64(0, 1<<32, n)
	q1, rem := bits.Div64(rem, 0, n)
	q2, _ := bits.Div64(rem, 0, n)
	return RingInt{l: [3]uint64{q0 & hiMask, q1, q2}}
}

// Float64 returns an approximation of r as a float64. 160-bit values far
// exceed float64 precision; the approximation is used only for distance
// *ratios* (average gap / observed gap), where relative error is
// negligible. The byte-wise Horner evaluation reproduces the historical
// rounding sequence bit-for-bit.
func (r RingInt) Float64() float64 {
	b := r.bytes20()
	var out float64
	for i := 0; i < 20; i++ {
		out = out*256 + float64(b[i])
	}
	return out
}

// RingRatio computes avgDist/dist as a float64, returning +Inf for a zero
// distance. It is the "ratio" statistic from Section VII of the paper: a
// relay whose fingerprint sits far closer to a descriptor ID than the
// average inter-fingerprint gap has positioned itself deliberately.
func RingRatio(avgDist, dist RingInt) float64 {
	d := dist.Float64()
	if d == 0 {
		return math.Inf(1)
	}
	return avgDist.Float64() / d
}
