package unites

import (
	"encoding/json"
	"math"
	"testing"
)

// fillDist builds a distribution with a wide dynamic range (µs to tens of
// seconds, plus zeros) so every code path of the bucket round trip is hit.
func fillDist() *Distribution {
	d := NewDistribution()
	lcg := uint64(12345)
	for i := 0; i < 5000; i++ {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		v := math.Exp(float64(lcg>>40)/float64(1<<24)*18 - 14) // ~[8e-7, 55]
		d.Add(v)
	}
	for i := 0; i < 37; i++ {
		d.Add(0)
	}
	return d
}

func snapOf(d *Distribution) DistSnapshot {
	snap := DistSnapshot{
		Count: d.Count, Mean: d.Mean(), StdDev: d.StdDev(),
		Min: d.Min, Max: d.Max,
		P50: d.Hist().Quantile(0.5), P90: d.Hist().Quantile(0.9),
		P95: d.Hist().Quantile(0.95), P99: d.Hist().Quantile(0.99),
		P999: d.Hist().Quantile(0.999),
		Hist: d.Hist().Buckets(),
	}
	return snap
}

// Regression for the snapshot-restore divergence: a restored distribution
// used to have no histogram and answered 0. The round trip must be exact —
// through JSON, at every quantile, and under merge.
func TestSnapshotRestoreExactQuantiles(t *testing.T) {
	d := fillDist()

	raw, err := json.Marshal(snapOf(d))
	if err != nil {
		t.Fatal(err)
	}
	var snap DistSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	r := snap.Restore()

	if r.Count != d.Count || r.Min != d.Min || r.Max != d.Max {
		t.Fatalf("moments: got count=%d min=%g max=%g, want count=%d min=%g max=%g",
			r.Count, r.Min, r.Max, d.Count, d.Min, d.Max)
	}
	if math.Abs(r.Mean()-d.Mean()) > 1e-9*math.Abs(d.Mean()) {
		t.Fatalf("Mean: got %g, want %g", r.Mean(), d.Mean())
	}
	if math.Abs(r.StdDev()-d.StdDev()) > 1e-6*d.StdDev() {
		t.Fatalf("StdDev: got %g, want %g", r.StdDev(), d.StdDev())
	}
	if r.Hist().Total() != d.Hist().Total() {
		t.Fatalf("hist total: got %d, want %d", r.Hist().Total(), d.Hist().Total())
	}
	for q := 0.0; q <= 1.0; q += 0.001 {
		if got, want := r.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("Quantile(%g): restored %g != live %g", q, got, want)
		}
		if got, want := r.Hist().Quantile(q), d.Hist().Quantile(q); got != want {
			t.Fatalf("Hist().Quantile(%g): restored %g != live %g", q, got, want)
		}
	}
}

// Quantile on a restored distribution answers from the rebuilt histogram
// rather than reporting 0 (the old silent-divergence path).
func TestRestoredQuantileFallsBackToHistogram(t *testing.T) {
	d := fillDist()
	r := snapOf(d).Restore()
	if got := r.Quantile(0.99); got == 0 || got != d.Quantile(0.99) {
		t.Fatalf("Quantile(0.99) on restored dist = %g, want the live answer %g",
			got, d.Quantile(0.99))
	}
	// Truly empty distributions still answer 0.
	if got := NewDistribution().Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
}

// Restored distributions must merge exactly like live ones: merging two
// restored snapshots equals snapshotting the merge of the originals.
func TestRestoredDistributionsMergeExactly(t *testing.T) {
	a, b := fillDist(), NewDistribution()
	for i := 0; i < 999; i++ {
		b.Add(float64(i) * 1e-3)
	}

	merged := NewDistribution()
	merged.Merge(a)
	merged.Merge(b)

	restored := snapOf(a).Restore()
	restored.Merge(snapOf(b).Restore())

	if restored.Count != merged.Count {
		t.Fatalf("merged count: got %d, want %d", restored.Count, merged.Count)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if got, want := restored.Quantile(q), merged.Quantile(q); got != want {
			t.Fatalf("Quantile(%g) after restored merge = %g, want %g", q, got, want)
		}
	}
}

// MergeSnapshot is the allocation-free scrape path; it must be exactly
// equivalent to Merge(Restore()).
func TestMergeSnapshotEquivalentToMergeRestore(t *testing.T) {
	a, b := fillDist(), NewDistribution()
	for i := 0; i < 999; i++ {
		b.Add(float64(i) * 1e-3)
	}

	viaRestore := NewDistribution()
	viaRestore.Merge(snapOf(a).Restore())
	viaRestore.Merge(snapOf(b).Restore())

	direct := NewDistribution()
	snapOf(a).MergeSnapshot(direct)
	snapOf(b).MergeSnapshot(direct)

	if direct.Count != viaRestore.Count || direct.Min != viaRestore.Min ||
		direct.Max != viaRestore.Max || direct.Sum != viaRestore.Sum ||
		direct.SumSq != viaRestore.SumSq {
		t.Fatalf("moments diverge: direct %+v, via restore %+v", direct, viaRestore)
	}
	for q := 0.0; q <= 1.0; q += 0.001 {
		if got, want := direct.Quantile(q), viaRestore.Quantile(q); got != want {
			t.Fatalf("Quantile(%g): direct %g != via restore %g", q, got, want)
		}
	}
	// Empty snapshots are a no-op.
	before := direct.Count
	DistSnapshot{}.MergeSnapshot(direct)
	if direct.Count != before {
		t.Fatal("empty snapshot changed the aggregate")
	}
}

// The single-pass Quantiles must agree with Quantile at every point,
// including the zero bucket and dense quantile lists.
func TestQuantilesSinglePassMatchesQuantile(t *testing.T) {
	h := fillDist().Hist()
	qs := make([]float64, 0, 1001)
	for q := 0.0; q <= 1.0; q += 0.001 {
		qs = append(qs, q)
	}
	out := make([]float64, len(qs))
	h.Quantiles(qs, out)
	for i, q := range qs {
		if want := h.Quantile(q); out[i] != want {
			t.Fatalf("Quantiles[%g] = %g, want %g", q, out[i], want)
		}
	}
	// Empty histogram answers zeros.
	var empty Histogram
	empty.Quantiles([]float64{0.5, 0.99}, out[:2])
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty histogram quantiles = %v, want zeros", out[:2])
	}
}

// Every histogram bucket midpoint must map back into its own bucket —
// the property HistogramFromBuckets relies on for exactness.
func TestBucketMidpointRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if got := histIndex(lo + (hi-lo)/2); got != i {
			t.Fatalf("bucket %d [%g,%g) midpoint maps to bucket %d", i, lo, hi, got)
		}
	}
}
