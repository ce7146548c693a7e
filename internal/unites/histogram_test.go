package unites

import (
	"math"
	"testing"
)

func TestHistIndexBounds(t *testing.T) {
	// Every bucket's bounds must bracket any value that indexes into it.
	for _, v := range []float64{1e-6, 0.001, 0.0042, 0.1, 1, 3.7, 100, 511} {
		idx := histIndex(v)
		lo, hi := histBounds(idx)
		if v < lo || v >= hi {
			t.Errorf("value %g indexed to bucket %d [%g,%g) which does not contain it", v, idx, lo, hi)
		}
	}
	// Out-of-range values clamp.
	if histIndex(1e-30) != 0 {
		t.Errorf("tiny value should clamp to bucket 0, got %d", histIndex(1e-30))
	}
	if histIndex(1e12) != histBuckets-1 {
		t.Errorf("huge value should clamp to last bucket, got %d", histIndex(1e12))
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Uniform samples over [1, 1000): quantiles must land within one
	// bucket's relative error (1/histSub = 12.5%) of the true value.
	var h Histogram
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(1 + 999*float64(i)/n)
	}
	if h.Total() != n {
		t.Fatalf("Total = %d, want %d", h.Total(), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := 1 + 999*q
		got := h.Quantile(q)
		if relErr := math.Abs(got-want) / want; relErr > 1.0/histSub {
			t.Errorf("Quantile(%g) = %g, want ~%g (rel err %.3f)", q, got, want, relErr)
		}
	}
}

func TestHistogramZerosAndMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Add(0) // zero-latency deliveries count but sort below everything
	}
	for i := 0; i < 10; i++ {
		b.Add(100)
	}
	a.Merge(&b)
	if a.Total() != 20 {
		t.Fatalf("merged total = %d, want 20", a.Total())
	}
	if got := a.Quantile(0.25); got != 0 {
		t.Errorf("Quantile(0.25) = %g, want 0 (zero bucket)", got)
	}
	if got := a.Quantile(0.9); math.Abs(got-100)/100 > 1.0/histSub {
		t.Errorf("Quantile(0.9) = %g, want ~100", got)
	}
	a.Merge(nil) // must be a no-op
	if a.Total() != 20 {
		t.Errorf("Merge(nil) changed total to %d", a.Total())
	}
}

func TestHistogramMergeMatchesCombined(t *testing.T) {
	// Merging two histograms must equal one histogram fed both streams.
	var a, b, both Histogram
	for i := 0; i < 5000; i++ {
		v := 0.001 * float64(i%997+1)
		a.Add(v)
		both.Add(v)
	}
	for i := 0; i < 5000; i++ {
		v := 0.01 * float64(i%89+1)
		b.Add(v)
		both.Add(v)
	}
	a.Merge(&b)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("Quantile(%g): merged %g != combined %g", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)
	h.Add(1)
	bs := h.Buckets()
	if len(bs) != 2 {
		t.Fatalf("Buckets() = %v, want zero bucket + one value bucket", bs)
	}
	if bs[0].Lo != 0 || bs[0].Hi != 0 || bs[0].Count != 1 {
		t.Errorf("zero bucket = %+v", bs[0])
	}
	if bs[1].Count != 2 || bs[1].Lo > 1 || bs[1].Hi <= 1 {
		t.Errorf("value bucket = %+v, want count 2 bracketing 1.0", bs[1])
	}
}

// The distribution's quantile is the histogram's, clamped to what was seen:
// within one bucket of the truth in the middle, exact at the ends.
func TestDistributionHistQuantile(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 970; i++ { // 970 sits low in its bucket [960, 1024)
		d.Add(float64(i))
	}
	if got := d.Quantile(0.5); math.Abs(got-485)/485 > 1.0/histSub {
		t.Errorf("Quantile(0.5) = %g, want ~485", got)
	}
	if got, raw := d.Quantile(1), d.Hist().Quantile(1); got != 970 || raw != 992 {
		t.Errorf("Quantile(1) = %g (bucket midpoint %g), want midpoint 992 clamped to Max 970", got, raw)
	}
	if d.Hist().Total() != 970 {
		t.Errorf("Hist() should hold all 970 samples")
	}
}

func TestDistributionMerge(t *testing.T) {
	a, b := NewDistribution(), NewDistribution()
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Add(float64(i))
	}
	a.Merge(b)
	if a.Count != 200 {
		t.Fatalf("Count = %d, want 200", a.Count)
	}
	if a.Min != 1 || a.Max != 200 {
		t.Errorf("Min/Max = %g/%g, want 1/200", a.Min, a.Max)
	}
	if got := a.Mean(); math.Abs(got-100.5) > 1e-9 {
		t.Errorf("Mean = %g, want 100.5", got)
	}
	if got := a.Quantile(0.999); math.Abs(got-200)/200 > 1.0/histSub {
		t.Errorf("merged Quantile(0.999) = %g, want ~200", got)
	}
	a.Merge(nil)
	a.Merge(NewDistribution()) // empty merge is a no-op
	if a.Count != 200 {
		t.Errorf("no-op merges changed Count to %d", a.Count)
	}
}
