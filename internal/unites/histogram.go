package unites

import "math"

// Log-bucketed histogram: the one quantile estimator of UNITES. Buckets are
// geometric — histSub sub-buckets per power of two — so relative error is
// bounded (≤ 1/histSub ≈ 12% bucket width, ~6% at the midpoint) across the
// whole dynamic range from microseconds to kiloseconds, and two histograms
// merge exactly (bucket-wise addition), which is what lets sharded E10 runs
// aggregate per-shard latency into one p999.
const (
	histSubBits = 3 // 8 sub-buckets per octave
	histSub     = 1 << histSubBits
	histMinExp  = -20 // first octave covers [2^-20, 2^-19) ≈ [0.95µs, 1.9µs) in seconds
	histMaxExp  = 10  // last octave covers [2^9, 2^10); larger values clamp into it
	histBuckets = (histMaxExp - histMinExp) * histSub
)

// Histogram counts samples in the geometric buckets above. It stores only a
// window over them: win[i] is bucket base+i, and the window grows a whole
// octave at a time, in either direction, to cover each value it sees. Most
// distributions span a few octaves (a session's one establishment latency
// spans one), so they hold tens of bytes where the full 240-bucket array is
// 2 KB. The zero value is ready to use. Values ≤ 0 are counted separately
// (virtual-time latencies can legitimately be exactly zero); positive values
// outside the bucketed range, +Inf included, clamp to the first/last bucket;
// NaN is not a value and is dropped.
type Histogram struct {
	zeros uint64
	total uint64
	base  int // bucket index of win[0], a multiple of histSub
	win   []uint64
}

// histIndex maps a positive value to its bucket.
func histIndex(v float64) int {
	if v >= 1<<histMaxExp { // +Inf too, which Frexp would not place
		return histBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	octave := exp - 1 - histMinExp
	if octave < 0 {
		return 0
	}
	sub := int((frac - 0.5) * 2 * histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	return octave<<histSubBits | sub
}

// histBounds returns the [lo, hi) value range of a bucket.
func histBounds(idx int) (lo, hi float64) {
	octave := idx >> histSubBits
	sub := idx & (histSub - 1)
	base := math.Ldexp(1, histMinExp+octave)
	lo = base * (1 + float64(sub)/histSub)
	return lo, lo + base/histSub
}

// slot returns bucket idx's counter, growing the window to cover its octave.
func (h *Histogram) slot(idx int) *uint64 {
	if i := idx - h.base; uint(i) < uint(len(h.win)) {
		return &h.win[i]
	}
	h.cover(idx, idx)
	return &h.win[idx-h.base]
}

// cover grows the window, in one step, to whole octaves that include buckets
// first through last.
func (h *Histogram) cover(first, last int) {
	lo, hi := first&^(histSub-1), last|(histSub-1)
	if len(h.win) == 0 {
		h.base = lo
	} else {
		lo, hi = min(lo, h.base), max(hi, h.base+len(h.win)-1)
	}
	if hi-lo+1 == len(h.win) {
		return
	}
	grown := make([]uint64, hi-lo+1)
	copy(grown[h.base-lo:], h.win)
	h.base, h.win = lo, grown
}

// Add folds in one sample.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.total++
	if v <= 0 {
		h.zeros++
		return
	}
	*h.slot(histIndex(v))++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Merge adds o's counts into h (exact: bucket-wise addition).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	h.zeros += o.zeros
	h.total += o.total
	if len(o.win) == 0 {
		return
	}
	h.cover(o.base, o.base+len(o.win)-1)
	into := h.win[o.base-h.base:]
	for i, c := range o.win {
		into[i] += c
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1): the midpoint of the bucket
// containing the q·total-th sample. Zero/negative samples report as 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total-1))
	if rank < h.zeros {
		return 0
	}
	cum := h.zeros
	for i, c := range h.win {
		cum += c
		if rank < cum {
			lo, hi := histBounds(h.base + i)
			return (lo + hi) / 2
		}
	}
	return 0
}

// Quantiles fills out[i] with the qs[i]-quantile in ONE pass over the
// buckets; qs must be ascending. Snapshot capture uses this — a scrape
// renders five quantiles for thousands of connection distributions, and the
// single pass is what keeps that render off the soak's critical path.
func (h *Histogram) Quantiles(qs []float64, out []float64) {
	if h.total == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	j := 0
	rankOf := func(q float64) uint64 {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		return uint64(q * float64(h.total-1))
	}
	for j < len(qs) && rankOf(qs[j]) < h.zeros {
		out[j] = 0
		j++
	}
	cum := h.zeros
	for i, c := range h.win {
		if j >= len(qs) {
			return
		}
		cum += c
		for j < len(qs) && rankOf(qs[j]) < cum {
			lo, hi := histBounds(h.base + i)
			out[j] = (lo + hi) / 2
			j++
		}
	}
	for ; j < len(qs); j++ {
		out[j] = 0
	}
}

// HistBucket is one non-empty bucket in an export snapshot.
type HistBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count uint64  `json:"count"`
}

// HistogramFromBuckets rebuilds a histogram from an exported bucket list.
// The round trip is exact: every exported bucket's midpoint maps back to the
// bucket it came from (bucket bounds are [lo, hi) with the midpoint strictly
// inside), and the [0,0) bucket restores the zero/negative count — so a
// restored histogram reports the same quantiles and merges bucket-wise with
// live ones.
func HistogramFromBuckets(bs []HistBucket) *Histogram {
	h := &Histogram{}
	h.AddBuckets(bs)
	return h
}

// AddBuckets folds exported buckets into h in place (the allocation-free
// variant of HistogramFromBuckets, for scrape-time aggregation).
func (h *Histogram) AddBuckets(bs []HistBucket) {
	for _, b := range bs {
		switch mid := b.Lo + (b.Hi-b.Lo)/2; {
		case math.IsNaN(mid): // NaN or opposite infinities for bounds: no such bucket
			continue
		case mid <= 0: // the exported [0,0) bucket
			h.zeros += b.Count
		default:
			*h.slot(histIndex(mid)) += b.Count
		}
		h.total += b.Count
	}
}

// Buckets returns the non-empty buckets in ascending value order, with a
// leading [0,0) bucket when zero/negative samples were recorded.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	if h.zeros > 0 {
		out = append(out, HistBucket{Count: h.zeros})
	}
	for i, c := range h.win {
		if c > 0 {
			lo, hi := histBounds(h.base + i)
			out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return out
}
