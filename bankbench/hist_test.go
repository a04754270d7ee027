package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestQuantileWithinOneBucket checks the percentile helper against an
// exact sort of a fixed sample: the reported value lies in the bucket of
// the exact order statistic, so it is off by less than one bucket width.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	xs := make([]int64, 20000)
	for i := range xs {
		// Log-normal around 10µs, spanning many powers of two.
		xs[i] = int64(math.Exp(rng.NormFloat64()*1.5) * 10_000)
		h.record(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	if h.n != uint64(len(xs)) {
		t.Fatalf("sample count %d, want %d", h.n, len(xs))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, ok := h.quantile(q)
		if !ok {
			t.Errorf("p%g unsupported with %d samples", q*100, len(xs))
		}
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		lo, hi := bucketBounds(bucketOf(exact))
		if got < float64(lo) || got >= float64(hi) {
			t.Errorf("p%g = %.1f, exact %d: outside its bucket [%d, %d)", q*100, got, exact, lo, hi)
		}
		if width := float64(hi - lo); math.Abs(got-float64(exact)) >= width && width > 1 {
			t.Errorf("p%g = %.1f, exact %d: off by a bucket width %g or more", q*100, got, exact, width)
		}
	}
}

// TestQuantileUnsupported checks that a percentile with fewer than ten
// samples beyond it is marked unsupported, and one with ten is not.
func TestQuantileUnsupported(t *testing.T) {
	var h hist
	for i := range 999 {
		h.record(int64(1000 + i))
	}
	if _, ok := h.quantile(0.99); ok {
		t.Error("p99 of 999 samples (9 beyond) reported as supported")
	}
	if _, ok := h.quantile(0.5); !ok {
		t.Error("p50 of 999 samples reported as unsupported")
	}
	h.record(5000)
	if _, ok := h.quantile(0.99); !ok {
		t.Error("p99 of 1000 samples (10 beyond) reported as unsupported")
	}
	var empty hist
	if _, ok := empty.quantile(0.5); ok {
		t.Error("p50 of no samples reported as supported")
	}
}

// TestBucketsTile checks that consecutive buckets share their bounds and
// that every value maps into its bucket's range.  The top bucket's upper
// bound, 2^63, overflows int64.
func TestBucketsTile(t *testing.T) {
	n := len(hist{}.counts)
	for i := 1; i < n; i++ {
		_, prevHi := bucketBounds(i - 1)
		lo, hi := bucketBounds(i)
		if lo != prevHi || (hi <= lo && i < n-1) {
			t.Fatalf("bucket %d = [%d, %d), previous ends at %d", i, lo, hi, prevHi)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 129, 1000, 123456789, math.MaxInt64} {
		lo, hi := bucketBounds(bucketOf(v))
		if v < lo || (v >= hi && hi > lo && hi > 0) {
			t.Errorf("value %d maps to bucket [%d, %d)", v, lo, hi)
		}
	}
}
