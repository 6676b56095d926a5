package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashUniformDeterministicAndInRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		a := HashUniform(42, i)
		b := HashUniform(42, i)
		if a != b {
			t.Fatalf("HashUniform not deterministic at index %d", i)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("HashUniform out of range: %v", a)
		}
	}
}

func TestHashUniformVariesWithSeedAndIndex(t *testing.T) {
	if HashUniform(1, 5) == HashUniform(2, 5) {
		t.Error("different seeds collided")
	}
	if HashUniform(1, 5) == HashUniform(1, 6) {
		t.Error("different indices collided")
	}
}

func TestHashGaussianMoments(t *testing.T) {
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := HashGaussian(99, uint64(i))
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v", variance)
	}
}

func TestHashGaussianOrderIndependence(t *testing.T) {
	// Random access: value at an index must not depend on what else was
	// evaluated (this is the whole point versus a sequential RNG).
	a := HashGaussian(7, 1000)
	_ = HashGaussian(7, 5)
	_ = HashGaussian(7, 999)
	b := HashGaussian(7, 1000)
	if a != b {
		t.Error("HashGaussian depends on evaluation order")
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 100; a++ {
		for b := uint64(0); b < 100; b++ {
			v := Mix64(a, b)
			if seen[v] {
				t.Fatalf("Mix64 collision at (%d,%d)", a, b)
			}
			seen[v] = true
		}
	}
	if Mix64(1, 2) == Mix64(2, 1) {
		t.Error("Mix64 should not be symmetric")
	}
}

func TestQuickHashGaussianFinite(t *testing.T) {
	f := func(seed, index uint64) bool {
		v := HashGaussian(seed, index)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGaussBucketBoundsSound checks the bucket index and its quantile
// bounds: the buckets tile [0, 2^53) in order, and every draw's quantile
// lies inside its bucket's bounds — at both edges, on a dense sample,
// around Acklam's branch points, at both extremes and at every count of
// leading zeros and ones.
func TestGaussBucketBoundsSound(t *testing.T) {
	const max = 1<<53 - 1
	check := func(m uint64) {
		t.Helper()
		b := GaussBucket(m)
		if b < 0 || b >= GaussBuckets {
			t.Fatalf("GaussBucket(%#x) = %d out of range", m, b)
		}
		if lo, hi := gaussBucketRange(b); m < lo || m > hi {
			t.Fatalf("m=%#x in bucket %d with range [%#x, %#x]", m, b, lo, hi)
		}
		z := InvNormCDF(Bits53Uniform(m))
		if glo, ghi := GaussBucketBounds(b); !(glo <= z && z <= ghi) {
			t.Fatalf("m=%#x bucket %d: z=%.17g outside [%.17g, %.17g]", m, b, z, glo, ghi)
		}
	}
	next := uint64(0)
	for b := 0; b < GaussBuckets; b++ {
		lo, hi := gaussBucketRange(b)
		if lo != next || hi < lo {
			t.Fatalf("bucket %d range [%#x, %#x] does not continue at %#x", b, lo, hi, next)
		}
		if GaussBucket(lo) != b || GaussBucket(hi) != b {
			t.Fatalf("bucket %d edges index to %d, %d", b, GaussBucket(lo), GaussBucket(hi))
		}
		const samples = 2048
		for i := uint64(0); i <= samples; i++ {
			check(lo + (hi-lo)/samples*i)
		}
		check(hi)
		next = hi + 1
	}
	if next != max+1 {
		t.Fatalf("buckets end at %#x, want 2^53", next)
	}
	check(0)
	check(max)
	// Both sides of the approximation's branch points.
	const pLow = 0.02425
	for _, p := range []float64{pLow, 1 - pLow} {
		c := uint64(p * (1 << 53))
		for m := c - 4096; m <= c+4096; m++ {
			check(m)
		}
		below := InvNormCDF(math.Nextafter(p, 0))
		above := InvNormCDF(math.Nextafter(p, 1))
		if jump := math.Abs(above - below); gaussSlack <= 10*jump {
			t.Errorf("slack %g does not exceed 10x the branch jump %g at p=%v", gaussSlack, jump, p)
		}
	}
	// Every leading-zeros and leading-ones count, 0 through 53.
	for n := uint(0); n <= 53; n++ {
		zeros := uint64(max) >> n // exactly n leading zeros
		check(zeros)
		if n < 53 {
			check(1 << (52 - n)) // smallest draw with n leading zeros
		}
		ones := uint64(max) &^ (max >> n) // exactly n leading ones, then zeros
		check(ones)
		if n < 53 {
			check(max &^ (1 << (52 - n))) // largest draw with n leading ones
		}
	}
}
