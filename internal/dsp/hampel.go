package dsp

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// hampelScale converts a median absolute deviation to an estimate of the
// standard deviation for Gaussian data (1/Φ⁻¹(0.75)).
const hampelScale = 1.4826

// Hampel applies a Hampel filter: for each sample, the median and the
// median absolute deviation (MAD) of a sliding window centered on the
// sample are computed; if the sample deviates from the window median by
// more than nsigma·1.4826·MAD it is replaced with the median.
//
// window is the full window length (an even value is extended by one to
// stay centered). PhaseBeat uses a 2000-sample window with a tiny threshold
// to extract the slow trend — that replaces nearly every sample with the
// local median, which RunningMedianStrided computes directly — and
// Hampel(x, 50, 0.01) as a high-frequency smoother.
func Hampel(x []float64, window int, nsigma float64) ([]float64, error) {
	return HampelInto(nil, x, window, nsigma)
}

// HampelInto is Hampel writing into dst (grown as needed), reusing pooled
// filter state so the steady-state cost is allocation-free when dst has
// capacity. It returns the filtered slice.
func HampelInto(dst, x []float64, window int, nsigma float64) ([]float64, error) {
	return HampelRange(dst, x, 0, len(x), window, nsigma, 0, len(x))
}

// HampelRange computes the same values Hampel(x, window, nsigma) would
// produce for the index range [lo, hi) of a length-n signal, without needing
// the whole signal: view holds x[viewStart : viewStart+len(view)] and must
// cover every sample the centered windows of [lo, hi) touch, i.e.
// [max(0, lo-window/2), min(n, hi+window/2)). Output index i of the result
// corresponds to signal index lo+i. The values are identical to the full
// filter's because a sample's output depends only on its centered window.
//
// The window is a sorted slice (medianWindow): each step costs an O(log w)
// search for the leaving sample, a shift of the samples between it and the
// entering sample's place, and an O(log w) median-absolute-deviation
// selection.
func HampelRange(dst, view []float64, viewStart, n, window int, nsigma float64, lo, hi int) ([]float64, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: Hampel window must be positive, got %d", window)
	}
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("dsp: Hampel range [%d, %d) outside [0, %d)", lo, hi, n)
	}
	if lo == hi {
		return growFloats(dst, 0), nil
	}
	half := window / 2
	needLo := lo - half
	if needLo < 0 {
		needLo = 0
	}
	needHi := hi + half
	if needHi > n {
		needHi = n
	}
	if viewStart > needLo || viewStart+len(view) < needHi {
		return nil, fmt.Errorf("dsp: Hampel view [%d, %d) does not cover needed [%d, %d)",
			viewStart, viewStart+len(view), needLo, needHi)
	}
	at := func(i int) float64 { return view[i-viewStart] }
	out := growFloats(dst, hi-lo)
	med := getMedianWindow(window + 1)
	defer putMedianWindow(med)

	// Prime the window for index lo by sorting its samples; it then slides
	// one sample at a time.
	first := lo - half
	if first < 0 {
		first = 0
	}
	last := lo + half
	if last >= n {
		last = n - 1
	}
	med.sorted = append(med.sorted, view[first-viewStart:last+1-viewStart]...)
	slices.Sort(med.sorted)
	for i := lo; i < hi; i++ {
		if i > lo {
			// Slide: add the new right edge, drop the old left edge.
			r, l := i+half, i-half-1
			switch {
			case r < n && l >= first:
				med.replace(at(l), at(r))
			case r < n:
				med.push(at(r))
			case l >= first:
				med.remove(at(l))
			}
		}
		m := med.median()
		d := math.Abs(at(i) - m)
		// mad ≤ madBound, so a sample past the bound's threshold is past
		// the MAD's too: only samples near the median need the exact MAD.
		if nsigma >= 0 && d > nsigma*(hampelScale*med.madBound(m)) ||
			d > nsigma*(hampelScale*med.mad(m)) {
			out[i-lo] = m
		} else {
			out[i-lo] = at(i)
		}
	}
	return out, nil
}

// growFloats returns dst resized to n, reallocating only when capacity is
// insufficient.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// HampelTrend returns the sliding-window median of x — the "basic trend"
// PhaseBeat extracts with a large Hampel window before detrending. (A
// Hampel filter with a zero threshold replaces every sample with its window
// median.)
func HampelTrend(x []float64, window int) ([]float64, error) {
	return RunningMedian(x, window)
}

// RunningMedian returns the centered sliding-window median of x with the
// given full window length.
func RunningMedian(x []float64, window int) ([]float64, error) {
	return RunningMedianStrided(x, window, 1)
}

// RunningMedianStrided evaluates the centered window median only at sample
// indices 0, stride, 2·stride, … (and the last index) and linearly
// interpolates between those anchor points. With stride 1 it equals
// RunningMedian. See RunningMedianStridedRange for the cost.
func RunningMedianStrided(x []float64, window, stride int) ([]float64, error) {
	return RunningMedianStridedRange(nil, x, window, stride, 0, len(x))
}

// RunningMedianStridedRange computes the same values
// RunningMedianStrided(x, window, stride) would produce for indices [lo, hi)
// of x, writing them into dst (grown as needed). Output index i corresponds
// to signal index lo+i. Anchor positions are derived from the full signal
// length, so a sub-range evaluation matches the full evaluation exactly —
// the invariant the incremental Monitor relies on.
//
// Cost: the span the needed windows cover (hi-lo+window samples) is ranked
// once by a linear-time radix argsort; each sample then enters and leaves
// the window in O(1), and each anchor's median is found by a popcount walk
// from the previous anchor's, a few words when the median drifts slowly.
// Nothing is allocated at steady state beyond dst.
func RunningMedianStridedRange(dst, x []float64, window, stride, lo, hi int) ([]float64, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: median window must be positive, got %d", window)
	}
	if stride <= 0 {
		return nil, fmt.Errorf("dsp: stride must be positive, got %d", stride)
	}
	n := len(x)
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("dsp: median range [%d, %d) outside [0, %d)", lo, hi, n)
	}
	if lo == hi {
		return growFloats(dst, 0), nil
	}
	half := window / 2
	// Anchor medians at 0, stride, …, and always at the last index — the
	// same grid the full evaluation uses.
	nAnchors := (n-1)/stride + 1
	lastAnchor := (nAnchors - 1) * stride
	if lastAnchor != n-1 {
		nAnchors++
	}
	anchorAt := func(a int) int {
		i := a * stride
		if i > n-1 {
			i = n - 1
		}
		return i
	}
	// Interpolating output i uses anchors seg(i) and seg(i)+1 where seg(i)
	// is the last anchor strictly before i (clamped to 0). Evaluate medians
	// only for the anchors the range [lo, hi) touches.
	segOf := func(i int) int {
		seg := 0
		for seg < nAnchors-1 && anchorAt(seg+1) < i {
			seg++
		}
		return seg
	}
	aFrom := segOf(lo)
	aTo := segOf(hi-1) + 1
	if aTo > nAnchors-1 {
		aTo = nAnchors - 1
	}
	anchorBuf := anchorPool.Get().(*[]float64)
	defer anchorPool.Put(anchorBuf)
	if cap(*anchorBuf) < aTo-aFrom+1 {
		*anchorBuf = make([]float64, aTo-aFrom+1)
	}
	anchorVal := (*anchorBuf)[:aTo-aFrom+1]
	// Rank every sample the needed anchors' windows cover, then slide the
	// window across the anchors. The window content at each anchor is
	// identical to the full evaluation's, so the medians are bit-identical.
	spanLo := max(anchorAt(aFrom)-half, 0)
	spanHi := min(anchorAt(aTo)+half, n-1)
	rw := getRankWindow()
	defer putRankWindow(rw)
	rw.build(x[spanLo : spanHi+1])
	winLo, winHi := spanLo, spanLo-1
	for a := aFrom; a <= aTo; a++ {
		i := anchorAt(a)
		for winHi < min(i+half, n-1) {
			winHi++
			rw.add(winHi - spanLo)
		}
		for winLo < max(i-half, 0) {
			rw.drop(winLo - spanLo)
			winLo++
		}
		anchorVal[a-aFrom] = rw.median()
	}
	out := growFloats(dst, hi-lo)
	seg := aFrom
	for i := lo; i < hi; i++ {
		for seg < nAnchors-1 && anchorAt(seg+1) < i {
			seg++
		}
		if seg == nAnchors-1 || anchorAt(seg) == i {
			out[i-lo] = anchorVal[seg-aFrom]
			continue
		}
		i0, i1 := anchorAt(seg), anchorAt(seg+1)
		frac := float64(i-i0) / float64(i1-i0)
		out[i-lo] = anchorVal[seg-aFrom]*(1-frac) + anchorVal[seg+1-aFrom]*frac
	}
	return out, nil
}

// anchorPool recycles the per-call anchor-median scratch of
// RunningMedianStridedRange: the streaming monitor evaluates the ranged
// median once or twice per subcarrier per stride, and the anchor count is
// small, so pooling removes the last per-subcarrier allocation of a warm
// stride.
var anchorPool = sync.Pool{New: func() any { return new([]float64) }}
