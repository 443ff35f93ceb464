package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the inverse cascade over every band reconstructs x from
// SWT(x) for random signals, wavelets and depths — the identity the
// band-selective reconstructions build on.
func TestSWTPerfectReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		order := 1 + r.Intn(6)
		w, err := Daubechies(order)
		if err != nil {
			return false
		}
		levels := 1 + r.Intn(4)
		minLen := (w.Len()-1)*(1<<(levels-1)) + 1
		n := minLen + r.Intn(300)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		d, err := SWT(x, w, levels)
		if err != nil {
			return false
		}
		y, err := d.reconstruct(true, nil)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: band reconstructions are additive.
func TestSWTBandAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w, err := Daubechies(4)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	d, err := SWT(x, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := d.ReconstructApprox()
	if err != nil {
		t.Fatal(err)
	}
	for lev := 1; lev <= 4; lev++ {
		band, err := d.ReconstructDetails(lev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += band[i]
		}
	}
	for i := range x {
		if math.Abs(sum[i]-x[i]) > 1e-8 {
			t.Fatalf("additivity failed at %d: %v != %v", i, sum[i], x[i])
		}
	}
}

// The motivating property over the decimated DWT: a strong tone below the
// band edge must NOT image into the β3+β4 band of a single-band SWT
// reconstruction.
func TestSWTDetailBandHasNoAliasImage(t *testing.T) {
	fs := 20.0
	n := 1024
	w, err := Daubechies(4)
	if err != nil {
		t.Fatal(err)
	}
	// Strong 0.45 Hz "breathing" + weak 1.8 Hz "heart".
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 1.0*math.Sin(2*math.Pi*0.45*ti) + 0.02*math.Sin(2*math.Pi*1.8*ti)
	}
	d, err := SWT(x, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	heart, err := d.ReconstructDetails(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The image frequency of the decimated transform would be
	// 1.25-0.45 = 0.80 Hz. Compare the energy near 0.80 vs near 1.8.
	imageMag := toneMagnitude(heart, fs, 0.80)
	heartMag := toneMagnitude(heart, fs, 1.8)
	if imageMag > heartMag {
		t.Errorf("alias image (%.4g at 0.80 Hz) exceeds heart line (%.4g at 1.8 Hz)",
			imageMag, heartMag)
	}
}

// toneMagnitude estimates the amplitude of a tone at f via correlation.
func toneMagnitude(x []float64, fs, f float64) float64 {
	var re, im float64
	for i, v := range x {
		re += v * math.Cos(2*math.Pi*f*float64(i)/fs)
		im += v * math.Sin(2*math.Pi*f*float64(i)/fs)
	}
	return 2 * math.Hypot(re, im) / float64(len(x))
}

// Shift invariance: shifting the input circularly shifts every band.
func TestSWTShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := Haar()
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	shift := 5
	shifted := make([]float64, n)
	for i := range x {
		shifted[(i+shift)%n] = x[i]
	}
	d1, err := SWT(x, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SWT(shifted, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(d1.Approx[i]-d2.Approx[(i+shift)%n]) > 1e-10 {
			t.Fatalf("approx not shift-covariant at %d", i)
		}
		for lev := range d1.Details {
			if math.Abs(d1.Details[lev][i]-d2.Details[lev][(i+shift)%n]) > 1e-10 {
				t.Fatalf("detail %d not shift-covariant at %d", lev+1, i)
			}
		}
	}
}

func TestSWTErrors(t *testing.T) {
	w, err := Daubechies(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SWT(make([]float64, 100), w, 0); err == nil {
		t.Error("want error for zero levels")
	}
	if _, err := SWT(make([]float64, 10), w, 4); err == nil {
		t.Error("want error for short signal")
	}
	d, err := SWT(make([]float64, 200), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReconstructDetails(0); err == nil {
		t.Error("want error for detail level 0")
	}
	if _, err := d.ReconstructDetails(3); err == nil {
		t.Error("want error for detail level beyond depth")
	}
	var empty SWTDecomposition
	if _, err := empty.ReconstructApprox(); err == nil {
		t.Error("want error for empty decomposition")
	}
}

func BenchmarkSWTDb4L4(b *testing.B) {
	w, err := Daubechies(4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SWT(x, w, 4); err != nil {
			b.Fatal(err)
		}
	}
}
