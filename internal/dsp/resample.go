package dsp

import "fmt"

// Downsample keeps every factor-th sample of x starting at index 0, with no
// anti-alias filtering — PhaseBeat downsamples after Hampel smoothing has
// already removed high-frequency content (400 Hz → 20 Hz with factor 20).
func Downsample(x []float64, factor int) ([]float64, error) {
	return DownsampleInto(nil, x, factor)
}

// DownsampleInto is Downsample writing into dst (grown as needed), so hot
// loops can reuse one output buffer across calls.
func DownsampleInto(dst, x []float64, factor int) ([]float64, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("dsp: downsample factor must be positive, got %d", factor)
	}
	n := (len(x) + factor - 1) / factor
	out := growFloats(dst, n)
	for i, j := 0, 0; i < len(x); i, j = i+factor, j+1 {
		out[j] = x[i]
	}
	return out, nil
}

// Decimate low-pass filters x with a centered moving average of length
// factor and then downsamples by factor. It is a safer alternative to
// Downsample when the input has not been smoothed.
func Decimate(x []float64, factor int) ([]float64, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("dsp: decimate factor must be positive, got %d", factor)
	}
	if factor == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	smoothed := MovingAverage(x, factor)
	return Downsample(smoothed, factor)
}

// MovingAverage returns the centered moving average of x with the given
// full window length; edges use the available samples only.
func MovingAverage(x []float64, window int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 || window <= 1 {
		copy(out, x)
		return out
	}
	half := window / 2
	// Prefix sums for O(1) window totals.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}

// Upsample inserts factor-1 zeros between consecutive samples of x
// (used by the inverse wavelet transform and interpolation tests).
func Upsample(x []float64, factor int) ([]float64, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("dsp: upsample factor must be positive, got %d", factor)
	}
	if len(x) == 0 {
		return nil, nil
	}
	out := make([]float64, (len(x)-1)*factor+1)
	for i, v := range x {
		out[i*factor] = v
	}
	return out, nil
}
