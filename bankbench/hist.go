package main

import "math/bits"

// A hist is a log-linear histogram of nanosecond durations.  Values below
// 2*subCount get a bucket each; above that, every power of two is split
// into subCount equal buckets, so a bucket is at most 1/subCount (1.6%)
// of its lower bound wide.  Recording is one increment and never
// allocates, so clients can time every call.
type hist struct {
	counts [(64 - subBits) * subCount]uint64
	n      uint64
}

const (
	subBits  = 6
	subCount = 1 << subBits
)

// bucketOf returns the index of the bucket holding v (negative values
// count as zero).
func bucketOf(v int64) int {
	if v < subCount {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)*subCount + int(v>>e) - subCount
}

// bucketBounds returns bucket i's half-open value range [lo, hi).
func bucketBounds(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i) + 1
	}
	e := i/subCount - 1
	m := int64(i%subCount + subCount)
	return m << e, (m + 1) << e
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds: the k-th
// smallest sample, k = ceil(q*n), placed within its bucket by its rank
// among the bucket's samples.  The value therefore lies in the same
// bucket as the exact order statistic.  supported is false when fewer
// than ten samples lie beyond the quantile, the least that makes a tail
// percentile more than noise.
func (h *hist) quantile(q float64) (ns float64, supported bool) {
	if h.n == 0 {
		return 0, false
	}
	k := uint64(q * float64(h.n))
	if float64(k) < q*float64(h.n) {
		k++
	}
	k = min(max(k, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+c < k {
			seen += c
			continue
		}
		lo, hi := bucketBounds(i)
		frac := (float64(k-seen) - 0.5) / float64(c)
		return float64(lo) + frac*float64(hi-lo), h.n-k >= 10
	}
	panic("hist: count total disagrees with buckets")
}

// quantileUs is quantile in microseconds.
func (h *hist) quantileUs(q float64) (us float64, supported bool) {
	ns, ok := h.quantile(q)
	return ns * usPerNs, ok
}
