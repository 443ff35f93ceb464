package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property tests of the two sliding order-statistic structures and of the
// filters built on them, against brute-force references that sort every
// window with sort.Float64s. Values are compared with ==, so -0 and +0
// count as equal, as they do for every consumer of the filters.

// medianSignal draws n samples of one of the data shapes the structures
// must get right: smooth phase-like data, tie-heavy quantized data, and a
// ±0 mix where the zeros' signs differ.
func medianSignal(r *rand.Rand, shape, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch shape {
		case 0: // breathing-like phase with noise and drift
			t := float64(i) / 400
			x[i] = 0.4*math.Sin(2*math.Pi*0.25*t) + 0.05*r.NormFloat64() + 0.01*t
		case 1: // quantized: a handful of distinct values, heavy ties
			x[i] = float64(r.Intn(5)-2) * 0.5
		default: // signed zeros among a few small values
			switch r.Intn(4) {
			case 0:
				x[i] = math.Copysign(0, -1)
			case 1:
				x[i] = 0
			default:
				x[i] = float64(r.Intn(3) - 1)
			}
		}
	}
	return x
}

// sortedCopy returns the window sorted by sort.Float64s.
func sortedCopy(w []float64) []float64 {
	s := append([]float64(nil), w...)
	sort.Float64s(s)
	return s
}

// refMedian is the median of a non-empty window by full sort.
func refMedian(w []float64) float64 {
	s := sortedCopy(w)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// refMAD is the median absolute deviation around m by full sort.
func refMAD(w []float64, m float64) float64 {
	d := make([]float64, len(w))
	for i, v := range w {
		d[i] = math.Abs(v - m)
	}
	return refMedian(d)
}

// mergeMAD is the linear-time MAD the sorted window used before the
// O(log w) selection: it merges the two monotone deviation runs around m
// and reads the middle. Kept as a second oracle for medianWindow.mad.
func mergeMAD(sorted []float64, m float64) float64 {
	n := len(sorted)
	dev := make([]float64, 0, n)
	lo := lowerBound(sorted, m) - 1
	hi := lo + 1
	for len(dev) < n {
		switch {
		case lo < 0:
			dev = append(dev, sorted[hi]-m)
			hi++
		case hi >= n:
			dev = append(dev, m-sorted[lo])
			lo--
		case m-sorted[lo] <= sorted[hi]-m:
			dev = append(dev, m-sorted[lo])
			lo--
		default:
			dev = append(dev, sorted[hi]-m)
			hi++
		}
	}
	if n%2 == 1 {
		return dev[n/2]
	}
	return (dev[n/2-1] + dev[n/2]) / 2
}

// TestMedianWindowProperty slides a medianWindow over random signals with
// every mix of push, remove and replace the filters use, checking after
// each step that the slice stays sorted, that median and mad match both
// oracles, and that madBound bounds mad.
func TestMedianWindowProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		shape := trial % 3
		width := 1 + r.Intn(60) // odd and even window sizes
		x := medianSignal(r, shape, width+r.Intn(200))
		w := newMedianWindow(width + 1)
		lo, hi := 0, 0 // window holds x[lo:hi]
		for step := 0; hi < len(x); step++ {
			switch {
			case hi-lo < width:
				w.push(x[hi])
				hi++
			case r.Intn(4) == 0:
				w.remove(x[lo])
				lo++
			default:
				w.replace(x[lo], x[hi])
				lo++
				hi++
			}
			if lo == hi {
				continue
			}
			win := x[lo:hi]
			if !sort.Float64sAreSorted(w.sorted) || len(w.sorted) != len(win) {
				t.Fatalf("trial %d step %d: window %v not a sorted copy of %v", trial, step, w.sorted, win)
			}
			m := w.median()
			if want := refMedian(win); m != want {
				t.Fatalf("trial %d step %d: median %v, want %v (window %v)", trial, step, m, want, win)
			}
			got := w.mad(m)
			if want := refMAD(win, m); got != want {
				t.Fatalf("trial %d step %d: mad %v, want %v (window %v)", trial, step, got, want, win)
			}
			if want := mergeMAD(w.sorted, m); got != want {
				t.Fatalf("trial %d step %d: mad %v, merge oracle %v", trial, step, got, want)
			}
			if b := w.madBound(m); !(b >= got) {
				t.Fatalf("trial %d step %d: madBound %v below mad %v", trial, step, b, got)
			}
			// mad must also be right around a point that is not the median.
			off := m + r.NormFloat64()
			if got, want := w.mad(off), refMAD(win, off); got != want {
				t.Fatalf("trial %d step %d: mad(%v) %v, want %v", trial, step, off, got, want)
			}
		}
	}
}

// TestRankWindowProperty ranks a random span and slides a FIFO window of
// random, varying width across it, checking every order statistic.
func TestRankWindowProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var w rankWindow
	for trial := 0; trial < 200; trial++ {
		span := medianSignal(r, trial%3, 1+r.Intn(400))
		w.build(span)
		lo, hi := 0, 0
		for hi < len(span) {
			// Grow by up to 12, shrink by up to 12, never empty.
			for g := r.Intn(13); g > 0 && hi < len(span); g-- {
				w.add(hi)
				hi++
			}
			for s := r.Intn(13); s > 0 && hi-lo > 1; s-- {
				w.drop(lo)
				lo++
			}
			if lo == hi {
				continue
			}
			win := span[lo:hi]
			if w.count != len(win) {
				t.Fatalf("trial %d: count %d, want %d", trial, w.count, len(win))
			}
			if got, want := w.median(), refMedian(win); got != want {
				t.Fatalf("trial %d [%d,%d): median %v, want %v", trial, lo, hi, got, want)
			}
			k := r.Intn(len(win))
			if got, want := w.kth(k), sortedCopy(win)[k]; got != want {
				t.Fatalf("trial %d [%d,%d): kth(%d) %v, want %v", trial, lo, hi, k, got, want)
			}
		}
	}
}

// TestOrderKeyIsTotalOrder checks the radix key against float comparison.
func TestOrderKeyIsTotalOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2, -1, -1e-300, math.Copysign(0, -1), 0, 1e-300, 1, 2, 1e300, math.Inf(1)}
	for i := range vals {
		for j := range vals {
			if (orderKey(vals[i]) < orderKey(vals[j])) != (i < j) {
				t.Fatalf("orderKey(%v) vs orderKey(%v) out of order", vals[i], vals[j])
			}
		}
	}
}

// refHampel is the Hampel filter by full sort of every centered window.
func refHampel(x []float64, window int, nsigma float64) []float64 {
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		win := x[max(0, i-half):min(len(x), i+half+1)]
		m := refMedian(win)
		if math.Abs(x[i]-m) > nsigma*hampelScale*refMAD(win, m) {
			out[i] = m
		} else {
			out[i] = x[i]
		}
	}
	return out
}

// refStrided is RunningMedianStrided by full sort at every anchor.
func refStrided(x []float64, window, stride int) []float64 {
	n := len(x)
	half := window / 2
	med := func(i int) float64 { return refMedian(x[max(0, i-half):min(n, i+half+1)]) }
	out := make([]float64, n)
	for i := range x {
		i0 := i / stride * stride
		if i0 == i {
			out[i] = med(i)
			continue
		}
		i1 := min(i0+stride, n-1)
		frac := float64(i-i0) / float64(i1-i0)
		out[i] = med(i0)*(1-frac) + med(i1)*frac
	}
	return out
}

// TestFilterRangesMatchBruteForce checks HampelRange and
// RunningMedianStridedRange on random sub-ranges — including ranges whose
// windows are truncated at either end of the signal — against the
// brute-force filters.
func TestFilterRangesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		shape := trial % 3
		n := 1 + r.Intn(300)
		x := medianSignal(r, shape, n)
		window := 1 + r.Intn(80)
		nsigma := []float64{0, 0.01, 3}[r.Intn(3)]
		stride := 1 + r.Intn(12)
		wantH := refHampel(x, window, nsigma)
		wantT := refStrided(x, window, stride)
		ranges := [][2]int{{0, n}, {0, min(n, 1+r.Intn(window))}, {max(0, n-1-r.Intn(window)), n}}
		for k := 0; k < 4; k++ {
			lo := r.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + r.Intn(n-lo+1)})
		}
		for _, rc := range ranges {
			lo, hi := rc[0], rc[1]
			half := window / 2
			vlo, vhi := max(0, lo-half), min(n, hi+half)
			if vlo > vhi {
				vlo, vhi = 0, 0
			}
			gotH, err := HampelRange(nil, x[vlo:vhi], vlo, n, window, nsigma, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			gotT, err := RunningMedianStridedRange(nil, x, window, stride, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for i := lo; i < hi; i++ {
				if gotH[i-lo] != wantH[i] {
					t.Fatalf("trial %d: HampelRange(w=%d, nsigma=%v)[%d,%d) at %d: %v, want %v",
						trial, window, nsigma, lo, hi, i, gotH[i-lo], wantH[i])
				}
				if gotT[i-lo] != wantT[i] {
					t.Fatalf("trial %d: RunningMedianStridedRange(w=%d, stride=%d)[%d,%d) at %d: %v, want %v",
						trial, window, stride, lo, hi, i, gotT[i-lo], wantT[i])
				}
			}
		}
	}
}

// paperSignal is one subcarrier of a 60 s window at 400 Hz.
func paperSignal() []float64 {
	return medianSignal(rand.New(rand.NewSource(5)), 0, 24000)
}

// BenchmarkTrendMedian times the trend pass at the paper's point (window
// 2000, stride 10) over a 60 s, 400 Hz subcarrier: the whole window, as
// the batch pipeline smooths it, and the tail a streaming stride
// re-smooths (5 s of new samples plus the smoothing margin).
func BenchmarkTrendMedian(b *testing.B) {
	x := paperSignal()
	n := len(x)
	for _, bc := range []struct {
		name   string
		lo, hi int
	}{{"window", 0, n}, {"stride-tail", n - 3040, n}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]float64, bc.hi-bc.lo)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunningMedianStridedRange(dst, x, 2000, 10, bc.lo, bc.hi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHampelSmooth times the small outlier pass at the paper's point
// (window 50, threshold 0.01) over the same two ranges.
func BenchmarkHampelSmooth(b *testing.B) {
	x := paperSignal()
	n := len(x)
	for _, bc := range []struct {
		name   string
		lo, hi int
	}{{"window", 0, n}, {"stride-tail", n - 3040, n}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]float64, bc.hi-bc.lo)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HampelRange(dst, x, 0, n, 50, 0.01, bc.lo, bc.hi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
