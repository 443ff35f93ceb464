package wavelet

import (
	"fmt"
)

// SWTDecomposition is a stationary (undecimated, "à trous") wavelet
// decomposition. Unlike the critically-sampled DWT, every band keeps the
// full signal length and the transform is shift-invariant — single-band
// reconstructions are therefore free of the aliasing images that a
// decimated filter bank produces, at 2× the cost per level.
type SWTDecomposition struct {
	// Approx is the level-L approximation at full rate.
	Approx []float64
	// Details[l-1] is the level-l detail at full rate (level 1 finest).
	Details [][]float64

	wavelet *Wavelet
	levels  int
}

// Levels returns the decomposition depth L.
func (d *SWTDecomposition) Levels() int { return d.levels }

// SWT computes a level-`levels` stationary wavelet decomposition of x
// using periodic boundary handling. The signal length must be at least the
// dilated filter length of the deepest level (2^(levels-1)·(filterLen-1)+1).
func SWT(x []float64, w *Wavelet, levels int) (*SWTDecomposition, error) {
	if levels < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadLevel, levels)
	}
	n := len(x)
	maxDilated := (w.Len()-1)*(1<<(levels-1)) + 1
	if n < maxDilated {
		return nil, fmt.Errorf("%w: %d samples < dilated filter %d at level %d",
			ErrBadLevel, n, maxDilated, levels)
	}
	d := &SWTDecomposition{
		Details: make([][]float64, 0, levels),
		wavelet: w,
		levels:  levels,
	}
	approx := make([]float64, n)
	copy(approx, x)
	for lev := 0; lev < levels; lev++ {
		dilation := 1 << lev
		nextApprox := make([]float64, n)
		detail := make([]float64, n)
		// À trous filtering: filters dilated by 2^lev, no downsampling.
		for i := 0; i < n; i++ {
			var sa, sd float64
			for j := 0; j < w.Len(); j++ {
				idx := i - j*dilation
				idx %= n
				if idx < 0 {
					idx += n
				}
				sa += approx[idx] * w.DecLo[j]
				sd += approx[idx] * w.DecHi[j]
			}
			nextApprox[i] = sa
			detail[i] = sd
		}
		d.Details = append(d.Details, detail)
		approx = nextApprox
	}
	d.Approx = approx
	return d, nil
}

// ReconstructApprox rebuilds the signal from the approximation band only.
func (d *SWTDecomposition) ReconstructApprox() ([]float64, error) {
	keep := make([]bool, d.levels)
	return d.reconstruct(true, keep)
}

// ReconstructDetails rebuilds the signal from the selected detail levels
// only (1-based; level 1 is the finest).
func (d *SWTDecomposition) ReconstructDetails(levels ...int) ([]float64, error) {
	keep := make([]bool, d.levels)
	for _, lev := range levels {
		if lev < 1 || lev > d.levels {
			return nil, fmt.Errorf("%w: detail level %d of %d", ErrBadLevel, lev, d.levels)
		}
		keep[lev-1] = true
	}
	return d.reconstruct(false, keep)
}

// reconstruct runs the inverse à trous cascade keeping only the selected
// bands.
func (d *SWTDecomposition) reconstruct(keepApprox bool, keepDetails []bool) ([]float64, error) {
	if len(d.Approx) == 0 {
		return nil, fmt.Errorf("wavelet: empty SWT decomposition")
	}
	n := len(d.Approx)
	w := d.wavelet
	cur := make([]float64, n)
	if keepApprox {
		copy(cur, d.Approx)
	}
	zero := make([]float64, n)
	for lev := d.levels - 1; lev >= 0; lev-- {
		detail := d.Details[lev]
		if keepDetails != nil && !keepDetails[lev] {
			detail = zero
		}
		dilation := 1 << lev
		next := make([]float64, n)
		// Inverse step: correlate (not convolve) with the analysis filters
		// at the same dilation. The undecimated frame is 2× redundant per
		// level, so the exact dual synthesis carries a factor of 1/2.
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < w.Len(); j++ {
				idx := i + j*dilation
				idx %= n
				if idx < 0 {
					idx += n
				}
				s += cur[idx]*w.DecLo[j] + detail[idx]*w.DecHi[j]
			}
			next[i] = s / 2
		}
		cur = next
	}
	return cur, nil
}
