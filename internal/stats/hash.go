package stats

import (
	"math"
	"math/bits"
)

// HashBits53 returns the 53 uniformly distributed bits behind
// HashUniform(seed, index): HashUniform is Bits53Uniform of this value,
// so a kernel can bucket the integer draw (GaussBucket) before it pays
// for the floating-point transform.
func HashBits53(seed, index uint64) uint64 {
	x := seed ^ (index+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	return splitMix64(&x) >> 11
}

// Bits53Uniform maps a 53-bit integer m onto [0,1) as m/2^53 (exact:
// every such m is representable).
func Bits53Uniform(m uint64) float64 {
	return float64(m) / (1 << 53)
}

// HashUniform returns a deterministic uniform value in [0,1) for the pair
// (seed, index). Unlike RNG it is stateless: any (seed, index) can be
// evaluated in any order, which lets the Monte-Carlo chip model expose
// per-cell device parameters for half a million cells without storing
// them (random access by cell index).
func HashUniform(seed, index uint64) float64 {
	return Bits53Uniform(HashBits53(seed, index))
}

// HashGaussian returns a deterministic standard-normal value for the pair
// (seed, index): the inverse normal CDF (Acklam's rational approximation,
// relative error < 1.2e-9 — accurate deep into the tails that drive the
// dead-line statistics) applied to one HashUniform draw.
func HashGaussian(seed, index uint64) float64 {
	return InvNormCDF(HashUniform(seed, index))
}

// Coefficients of Acklam's inverse-normal-CDF approximation.
var (
	acklamA = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	acklamB = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	acklamC = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	acklamD = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
)

// InvNormCDF returns the standard-normal quantile of p in (0, 1).
// Out-of-range inputs are clamped to avoid infinities.
func InvNormCDF(p float64) float64 {
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < 1e-300:
		p = 1e-300
	case p > 1-1e-16:
		p = 1 - 1e-16
	}
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((acklamA[0]*r+acklamA[1])*r+acklamA[2])*r+acklamA[3])*r+acklamA[4])*r + acklamA[5]) * q /
			(((((acklamB[0]*r+acklamB[1])*r+acklamB[2])*r+acklamB[3])*r+acklamB[4])*r + 1)
	}
}

// Mix64 mixes two 64-bit values into one; used to build composite hash
// indices such as (line, cell, transistor) without collisions in practice.
func Mix64(a, b uint64) uint64 {
	x := a ^ rotl(b, 29) ^ 0xd1b54a32d192ed03
	return splitMix64(&x)
}

// GaussBuckets is the number of buckets GaussBucket splits the 53-bit
// draw space into: the 254 interior 1/256 slices of [0,1) named by the
// top 8 bits, plus gaussTailBuckets sub-buckets in each of the bottom
// and top slices, one per count of leading zeros (bottom) or ones (top),
// 8 through 53. The tail split keeps the bounds tight where the
// Gaussian is steep.
const GaussBuckets = 254 + 2*gaussTailBuckets

const gaussTailBuckets = 53 - 8 + 1

// gaussSlack widens every bucket's quantile bounds. It must exceed
// everything that can make InvNormCDF non-monotone inside a bucket:
// the jump of Acklam's approximation at its branch points pLow/pHigh
// (4.4e-9, asserted by TestGaussBucketBoundsSound) and the wiggle its
// 1.15e-9 relative error allows (< 1e-7 at the clamp's |z| ≈ 37.5).
const gaussSlack = 1e-6

// GaussBucket returns the bucket of the 53-bit draw m. Buckets are
// numbered in increasing order of m: bottom tail, interior, top tail.
func GaussBucket(m uint64) int {
	switch top := m >> 45; top {
	case 0:
		return 64 - bits.LeadingZeros64(m) // bit length: 0 for m = 0, 45 at the slice's top
	case 0xff:
		return GaussBuckets - 1 - (64 - bits.LeadingZeros64(m^(1<<53-1)))
	default:
		return gaussTailBuckets - 1 + int(top)
	}
}

// gaussBucketRange returns the smallest and largest draw in bucket b.
func gaussBucketRange(b int) (lo, hi uint64) {
	const max = 1<<53 - 1
	switch {
	case b == 0:
		return 0, 0
	case b < gaussTailBuckets:
		return 1 << (b - 1), 1<<b - 1
	case b < GaussBuckets-gaussTailBuckets:
		top := uint64(b - gaussTailBuckets + 1)
		return top << 45, (top+1)<<45 - 1
	case b == GaussBuckets-1:
		return max, max
	default:
		n := GaussBuckets - 1 - b // bit length of max-m
		return max - (1<<n - 1), max - 1<<(n-1)
	}
}

// gaussBounds holds, per bucket, a lower and an upper bound on
// InvNormCDF(Bits53Uniform(m)) over every draw m in the bucket: the
// quantiles at the bucket's two edges, widened by gaussSlack.
var gaussBounds = func() (t [GaussBuckets][2]float64) {
	for b := range t {
		lo, hi := gaussBucketRange(b)
		t[b] = [2]float64{
			InvNormCDF(Bits53Uniform(lo)) - gaussSlack,
			InvNormCDF(Bits53Uniform(hi)) + gaussSlack,
		}
	}
	return t
}()

// GaussBucketBounds returns lo ≤ InvNormCDF(Bits53Uniform(m)) ≤ hi for
// every draw m with GaussBucket(m) == b.
func GaussBucketBounds(b int) (lo, hi float64) {
	return gaussBounds[b][0], gaussBounds[b][1]
}
