package unites

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// denseHist is the reference side of the property tests below: the fixed
// 240-bucket array Histogram was before it became a window. Anything the
// window does must be indistinguishable from this.
type denseHist struct {
	zeros, total uint64
	buckets      [histBuckets]uint64
}

func (h *denseHist) add(v float64) {
	h.total++
	if v <= 0 {
		h.zeros++
		return
	}
	h.buckets[histIndex(v)]++
}

func (h *denseHist) bucketList() []HistBucket {
	var out []HistBucket
	if h.zeros > 0 {
		out = append(out, HistBucket{Count: h.zeros})
	}
	for i, c := range h.buckets {
		if c > 0 {
			lo, hi := histBounds(i)
			out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return out
}

func (h *denseHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total-1))
	if rank < h.zeros {
		return 0
	}
	cum := h.zeros
	for i, c := range h.buckets {
		if cum += c; rank < cum {
			lo, hi := histBounds(i)
			return (lo + hi) / 2
		}
	}
	return 0
}

// tenRanks are ascending, as Quantiles requires.
var tenRanks = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// drawSample covers the bucketed range (1 µs … 1 000 s, log-uniform) and
// everything around it: zeros, negatives, values below the first bucket and
// above the last. lo and hi narrow the log-uniform part to [2^lo, 2^hi).
func drawSample(rng *rand.Rand, lo, hi float64) float64 {
	switch rng.Intn(20) {
	case 0:
		return 0
	case 1:
		return -rng.Float64()
	case 2:
		return 1e-9 * rng.Float64() // sub-range: clamps into the first bucket
	case 3:
		return 2000 + 1e6*rng.Float64() // over-range: clamps into the last
	}
	return math.Exp2(lo + (hi-lo)*rng.Float64())
}

func sameAsDense(t *testing.T, what string, h *Histogram, ref *denseHist) {
	t.Helper()
	if h.Total() != ref.total {
		t.Fatalf("%s: Total = %d, dense reference %d", what, h.Total(), ref.total)
	}
	if got, want := h.Buckets(), ref.bucketList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Buckets differ from the dense reference\n got %v\nwant %v", what, got, want)
	}
	out := make([]float64, len(tenRanks))
	h.Quantiles(tenRanks, out)
	for i, q := range tenRanks {
		if want := ref.quantile(q); out[i] != want || h.Quantile(q) != want {
			t.Fatalf("%s: q%g = %g (single pass) / %g, dense reference %g", what, q, out[i], h.Quantile(q), want)
		}
	}
}

func TestHistogramWindowMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Some streams wander over the whole range, some sit in a few octaves
		// (the shape a window exists for), in whatever order they come.
		lo, hi := -20.0, 10.0
		if seed%2 == 0 {
			lo = -20 + 26*rng.Float64()
			hi = lo + 4*rng.Float64()
		}
		var h Histogram
		var ref denseHist
		samples := make([]float64, 1+rng.Intn(3000))
		for i := range samples {
			samples[i] = drawSample(rng, lo, hi)
			h.Add(samples[i])
			ref.add(samples[i])
		}
		sameAsDense(t, "stream", &h, &ref)
		if len(h.win)%histSub != 0 || h.base%histSub != 0 || len(h.win) > histBuckets {
			t.Fatalf("seed %d: window [%d,+%d) is not whole octaves inside the bucket range", seed, h.base, len(h.win))
		}

		// Export and re-import is the identity.
		back := HistogramFromBuckets(h.Buckets())
		sameAsDense(t, "re-imported", back, &ref)

		// Quantile error against an exact sort is at most one bucket width,
		// for values the buckets resolve (inside their range, above zero).
		sort.Float64s(samples)
		for _, q := range tenRanks {
			exact := samples[int(q*float64(len(samples)-1))]
			if exact < math.Exp2(histMinExp) || exact >= math.Exp2(histMaxExp) {
				continue
			}
			if got := h.Quantile(q); math.Abs(got-exact) > exact/histSub {
				t.Fatalf("seed %d: q%g = %g, exact %g: off by more than a bucket", seed, q, got, exact)
			}
		}
	}
}

func TestHistogramMergeOfWindowsEqualsUnion(t *testing.T) {
	// Octave ranges of the two operands: disjoint either way round, nested
	// either way round, overlapping, identical, and one side empty.
	cases := []struct {
		name               string
		aLo, aHi, bLo, bHi float64
		bN                 int
	}{
		{"disjoint, b above", -18, -15, 2, 6, 500},
		{"disjoint, b below", 2, 6, -18, -15, 500},
		{"b nested in a", -15, 5, -8, -6, 500},
		{"a nested in b", -8, -6, -15, 5, 500},
		{"overlapping", -12, -4, -7, 3, 500},
		{"identical", -10, -7, -10, -7, 500},
		{"b empty", -10, -7, 0, 0, 0},
	}
	for i, c := range cases {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		var a, b Histogram
		var union denseHist
		for j := 0; j < 500; j++ {
			v := math.Exp2(c.aLo + (c.aHi-c.aLo)*rng.Float64())
			if j%50 == 0 {
				v = 0
			}
			a.Add(v)
			union.add(v)
		}
		for j := 0; j < c.bN; j++ {
			v := math.Exp2(c.bLo + (c.bHi-c.bLo)*rng.Float64())
			b.Add(v)
			union.add(v)
		}
		bBefore := b.Buckets()
		a.Merge(&b)
		sameAsDense(t, c.name, &a, &union)
		if !reflect.DeepEqual(b.Buckets(), bBefore) {
			t.Fatalf("%s: Merge changed its argument", c.name)
		}
		// The other direction, into an empty histogram and through AddBuckets.
		var into Histogram
		into.Merge(&a)
		sameAsDense(t, c.name+" into empty", &into, &union)
		var viaBuckets Histogram
		viaBuckets.AddBuckets(a.Buckets())
		sameAsDense(t, c.name+" via AddBuckets", &viaBuckets, &union)
	}
}

// Non-finite samples used to index buckets with int(NaN) and take the process
// down from Recorder.Sample; so did imported buckets with NaN bounds.
func TestNonFiniteSamplesAreCountedNotFatal(t *testing.T) {
	var h Histogram
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(3)
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3 (NaN is dropped, the infinities clamp)", h.Total())
	}
	bs := h.Buckets()
	lastLo, _ := histBounds(histBuckets - 1)
	if len(bs) != 3 || bs[0] != (HistBucket{Count: 1}) || bs[2].Lo != lastLo || bs[2].Count != 1 {
		t.Fatalf("Buckets = %v, want -Inf with the zeros, 3 in its bucket, +Inf in the last", bs)
	}

	nan, inf := math.NaN(), math.Inf(1)
	imported := HistogramFromBuckets([]HistBucket{
		{Lo: nan, Hi: nan, Count: 5}, {Lo: 1, Hi: nan, Count: 5}, {Lo: -inf, Hi: inf, Count: 5},
		{Lo: inf, Hi: inf, Count: 5}, {Lo: 2, Hi: 1, Count: 2}, {Lo: -3, Hi: -1, Count: 4}, {Lo: 8, Hi: inf, Count: 1},
	})
	if imported.Total() != 7 || imported.zeros != 4 {
		t.Fatalf("imported total %d zeros %d, want 7 and 4 (buckets with no midpoint are dropped)", imported.Total(), imported.zeros)
	}

	r := NewRecorder("host/conn-00000001")
	zero := 0.0
	r.Sample("ratio", zero/zero)
	r.Sample("ratio", 1/zero)
	r.Sample("ratio", 0.5)
	d := r.Dist("ratio")
	if d.Count != 1 || d.Invalid != 2 || d.Sum != 0.5 || d.Min != 0.5 || d.Max != 0.5 || d.Quantile(0.99) != 0.5 {
		t.Fatalf("after NaN, +Inf, 0.5: %+v, want one sample of 0.5 and Invalid 2", d)
	}
	snap := snapshotOf(r).Dists["ratio"]
	if snap.Invalid != 2 {
		t.Fatalf("snapshot Invalid = %d, want 2", snap.Invalid)
	}
	// Invalid travels with the distribution: through a snapshot and a merge.
	into := NewDistribution()
	snap.MergeSnapshot(into)
	into.Merge(d)
	if into.Invalid != 4 || into.Count != 2 {
		t.Fatalf("merged Invalid %d Count %d, want 4 and 2", into.Invalid, into.Count)
	}
}

func FuzzHistogramBuckets(f *testing.F) {
	f.Add(0.0, 0.0, uint64(3), 1.0, 1.125, uint64(2), 512.0, 576.0, uint64(1))
	f.Add(math.NaN(), 1.0, uint64(1), math.Inf(1), math.Inf(1), uint64(1), math.Inf(-1), math.Inf(1), uint64(1))
	f.Add(-4.0, -2.0, uint64(9), 5.0, 1.0, uint64(9), 1e-12, 1e12, uint64(9))
	f.Fuzz(func(t *testing.T, lo1, hi1 float64, n1 uint64, lo2, hi2 float64, n2 uint64, lo3, hi3 float64, n3 uint64) {
		// Counts stay far from overflow: the property is about bounds.
		in := []HistBucket{{lo1, hi1, n1 >> 8}, {lo2, hi2, n2 >> 8}, {lo3, hi3, n3 >> 8}}
		h := HistogramFromBuckets(in)
		out := h.Buckets()
		var sum uint64
		for _, b := range out {
			sum += b.Count
		}
		if sum != h.Total() {
			t.Fatalf("buckets of %v hold %d, Total %d", in, sum, h.Total())
		}
		back := HistogramFromBuckets(out)
		if back.Total() != h.Total() || !reflect.DeepEqual(back.Buckets(), out) {
			t.Fatalf("import of %v does not re-import to itself: %v then %v", in, out, back.Buckets())
		}
		for _, q := range tenRanks {
			if back.Quantile(q) != h.Quantile(q) {
				t.Fatalf("q%g differs after re-import of %v", q, in)
			}
		}
	})
}
