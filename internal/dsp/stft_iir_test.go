package dsp

import (
	"math"
	"testing"
)

func TestSTFTTracksChirpedRate(t *testing.T) {
	// Breathing that speeds up from 0.2 to 0.4 Hz over two minutes.
	fs := 20.0
	n := 2400
	x := make([]float64, n)
	phase := 0.0
	for i := range x {
		f := 0.2 + 0.2*float64(i)/float64(n)
		phase += 2 * math.Pi * f / fs
		x[i] = math.Sin(phase)
	}
	sp, err := STFT(x, fs, 512, 128)
	if err != nil {
		t.Fatalf("STFT: %v", err)
	}
	ridge := sp.RidgeFrequencies(0.1, 0.6)
	if len(ridge) < 5 {
		t.Fatalf("only %d frames", len(ridge))
	}
	if ridge[0] > ridge[len(ridge)-1] {
		t.Errorf("ridge should increase: %v -> %v", ridge[0], ridge[len(ridge)-1])
	}
	if math.Abs(ridge[0]-0.22) > 0.08 {
		t.Errorf("first ridge %v, want ~0.22", ridge[0])
	}
	if math.Abs(ridge[len(ridge)-1]-0.38) > 0.08 {
		t.Errorf("last ridge %v, want ~0.38", ridge[len(ridge)-1])
	}
}

func TestSTFTErrors(t *testing.T) {
	x := make([]float64, 100)
	if _, err := STFT(x, 20, 2, 10); err == nil {
		t.Error("want error for tiny window")
	}
	if _, err := STFT(x, 20, 64, 0); err == nil {
		t.Error("want error for zero hop")
	}
	if _, err := STFT(x, 0, 64, 16); err == nil {
		t.Error("want error for zero fs")
	}
	if _, err := STFT(x[:10], 20, 64, 16); err == nil {
		t.Error("want error for short signal")
	}
}

func TestButterworthLowPassResponse(t *testing.T) {
	fs := 20.0
	f, err := ButterworthLowPass(1, fs, 4)
	if err != nil {
		t.Fatalf("ButterworthLowPass: %v", err)
	}
	if g := f.FrequencyResponse(0.1, fs); math.Abs(g-1) > 0.02 {
		t.Errorf("passband gain = %v", g)
	}
	// -3 dB at the cutoff.
	if g := f.FrequencyResponse(1, fs); math.Abs(g-math.Sqrt2/2) > 0.03 {
		t.Errorf("cutoff gain = %v, want ~0.707", g)
	}
	if g := f.FrequencyResponse(5, fs); g > 0.01 {
		t.Errorf("stopband gain = %v", g)
	}
}

func TestButterworthHighPassResponse(t *testing.T) {
	fs := 20.0
	f, err := ButterworthHighPass(0.6, fs, 4)
	if err != nil {
		t.Fatalf("ButterworthHighPass: %v", err)
	}
	if g := f.FrequencyResponse(3, fs); math.Abs(g-1) > 0.02 {
		t.Errorf("passband gain = %v", g)
	}
	if g := f.FrequencyResponse(0.1, fs); g > 0.01 {
		t.Errorf("stopband gain = %v", g)
	}
}

func TestButterworthBandPassSplitsTones(t *testing.T) {
	fs := 20.0
	f, err := ButterworthBandPass(0.625, 2.5, fs, 4)
	if err != nil {
		t.Fatalf("ButterworthBandPass: %v", err)
	}
	n := 1200
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.3*ti) + 0.3*math.Sin(2*math.Pi*1.2*ti) + 0.5*math.Sin(2*math.Pi*6*ti)
	}
	y := f.ApplyZeroPhase(x)
	// Only the 1.2 Hz tone should survive (check via single-bin DFTs).
	inBand := toneMagnitude(y[200:1000], 1.2, fs)
	below := toneMagnitude(y[200:1000], 0.3, fs)
	above := toneMagnitude(y[200:1000], 6, fs)
	if inBand < 5*below || inBand < 5*above {
		t.Errorf("band separation weak: in=%v below=%v above=%v", inBand, below, above)
	}
}

// toneMagnitude is |Σ x[k]·e^{-i2πfk/fs}|, the DFT magnitude of x at f.
func toneMagnitude(x []float64, f, fs float64) float64 {
	var re, im float64
	for k, v := range x {
		s, c := math.Sincos(2 * math.Pi * f * float64(k) / fs)
		re += v * c
		im -= v * s
	}
	return math.Hypot(re, im)
}

func TestZeroPhaseAlignment(t *testing.T) {
	fs := 20.0
	f, err := ButterworthLowPass(1, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 600
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.3 * float64(i) / fs)
	}
	y := f.ApplyZeroPhase(x)
	// Peaks must stay aligned within a sample or two.
	px, _ := FindPeaks(x[100:500], 21, 0)
	py, _ := FindPeaks(y[100:500], 21, 0)
	if len(px) == 0 || len(px) != len(py) {
		t.Fatalf("peak counts differ: %d vs %d", len(px), len(py))
	}
	for i := range px {
		d := px[i].Index - py[i].Index
		if d < -2 || d > 2 {
			t.Errorf("peak %d misaligned by %d", i, d)
		}
	}
}

func TestIIRValidation(t *testing.T) {
	if _, err := ButterworthLowPass(0, 20, 4); err == nil {
		t.Error("want error for zero cutoff")
	}
	if _, err := ButterworthLowPass(1, 20, 3); err == nil {
		t.Error("want error for odd order")
	}
	if _, err := ButterworthHighPass(15, 20, 4); err == nil {
		t.Error("want error for cutoff above Nyquist")
	}
	if _, err := ButterworthBandPass(2, 1, 20, 4); err == nil {
		t.Error("want error for inverted band")
	}
}
