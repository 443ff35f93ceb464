package dsp

import (
	"math"
	"math/bits"
	"sync"
)

// This file holds the two sliding order-statistic structures behind the
// Hampel filters. Both answer the same question — the k-th smallest sample
// of the current window — so either one returns the same value for a given
// window content (equal samples are interchangeable; -0 and +0 count as
// equal).
//
//   - medianWindow keeps the window as a sorted slice. It serves Hampel's
//     outlier pass, which needs the median and the MAD at every sample of a
//     small window (50 samples at the paper's rate): a slide is a binary
//     search plus one insertion-sort step, and the MAD is an O(log w)
//     selection over the sorted slice.
//   - rankWindow serves the large trend window (2000 samples, read every
//     TrendStride samples). It ranks every sample of the evaluated span once
//     and then keeps the window as a bitset over ranks: adding or dropping a
//     sample is one bit flip, and a median query walks word popcounts from
//     the previous answer.

// medianWindow maintains a multiset of samples in a sorted backing slice:
// push, remove and replace cost O(log w) comparisons plus moving at most w
// samples, median is O(1) and mad is O(log w). It allocates nothing after
// construction.
type medianWindow struct {
	sorted []float64
}

func newMedianWindow(capacity int) *medianWindow {
	return &medianWindow{sorted: make([]float64, 0, capacity)}
}

// medianWindowPool recycles filter state across calls so the Hampel-heavy
// hot paths (batch calibration, the incremental monitor) stay allocation-free
// at steady state.
var medianWindowPool = sync.Pool{New: func() any { return new(medianWindow) }}

func getMedianWindow(capacity int) *medianWindow {
	w := medianWindowPool.Get().(*medianWindow)
	if cap(w.sorted) < capacity {
		w.sorted = make([]float64, 0, capacity)
	} else {
		w.sorted = w.sorted[:0]
	}
	return w
}

func putMedianWindow(w *medianWindow) { medianWindowPool.Put(w) }

func (w *medianWindow) push(v float64) {
	i := lowerBound(w.sorted, v)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = v
}

func (w *medianWindow) remove(v float64) {
	i := lowerBound(w.sorted, v)
	if i < len(w.sorted) && w.sorted[i] == v {
		copy(w.sorted[i:], w.sorted[i+1:])
		w.sorted = w.sorted[:len(w.sorted)-1]
	}
}

// replace removes old and inserts v in one pass, as one insertion-sort
// step: the hole left by old slides toward v's place, moving only the
// samples between the two. The result is the multiset remove(old) then
// push(v) would leave.
func (w *medianWindow) replace(old, v float64) {
	s := w.sorted
	i := lowerBound(s, old)
	if i == len(s) || s[i] != old {
		w.push(v)
		return
	}
	for i > 0 && s[i-1] > v {
		s[i] = s[i-1]
		i--
	}
	for i+1 < len(s) && s[i+1] < v {
		s[i] = s[i+1]
		i++
	}
	s[i] = v
}

func (w *medianWindow) median() float64 {
	n := len(w.sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return w.sorted[n/2]
	}
	return (w.sorted[n/2-1] + w.sorted[n/2]) / 2
}

// mad returns the median absolute deviation of the window around m.
//
// The deviations are two non-decreasing runs over the sorted window: the
// left run m-sorted[split-1-j] walking down from split = lowerBound(m), and
// the right run sorted[split+j]-m walking up. The n/2+1 smallest
// deviations, enough to read their median, are a prefix of each run; a
// binary search finds how many come from the left run, so the median
// deviation costs O(log w) instead of a full merge.
func (w *medianWindow) mad(m float64) float64 {
	s := w.sorted
	n := len(s)
	if n == 0 {
		return 0
	}
	// split is lowerBound(s, m); m is almost always the window median, whose
	// lower bound is n/2 unless samples tie at the median.
	split := n / 2
	if s[split] < m || (split > 0 && s[split-1] >= m) {
		split = lowerBound(s, m)
	}
	left := func(j int) float64 { return m - s[split-1-j] }
	right := func(j int) float64 { return s[split+j] - m }
	// Take the t smallest deviations: i from the left run, t-i from the
	// right. The first i at which left(i) is not below the right run's last
	// taken deviation is the split of a valid merge prefix.
	t := n/2 + 1
	lo, hi := max(0, t-(n-split)), min(t, split)
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if left(i) < right(t-i-1) {
			lo = i + 1
		} else {
			hi = i
		}
	}
	i, j := lo, t-lo
	// The largest taken deviation is the t-th smallest overall.
	fromLeft := j == 0 || (i > 0 && left(i-1) >= right(j-1))
	var kth float64
	if fromLeft {
		kth = left(i - 1)
		i--
	} else {
		kth = right(j - 1)
		j--
	}
	if n%2 == 1 {
		return kth
	}
	// Even n: the next largest taken deviation is the (t-1)-th smallest.
	prev := math.Inf(-1)
	if i > 0 {
		prev = left(i - 1)
	}
	if j > 0 && right(j-1) > prev {
		prev = right(j - 1)
	}
	return (prev + kth) / 2
}

// madBound returns an upper bound on mad(m) in O(1): the n/2+1 samples
// centred in the sorted window — enough to hold the median deviation —
// all lie within it of m.
func (w *medianWindow) madBound(m float64) float64 {
	s := w.sorted
	n := len(s)
	if n == 0 {
		return 0
	}
	t := n/2 + 1
	a := (n - t) / 2
	return max(math.Abs(m-s[a]), math.Abs(s[a+t-1]-m))
}

// lowerBound returns the first index i with sorted[i] >= v.
func lowerBound(sorted []float64, v float64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Radix parameters of rankWindow.build: 11-bit digits cover a 64-bit key in
// six passes.
const (
	rankDigitBits = 11
	rankDigits    = (64 + rankDigitBits - 1) / rankDigitBits
	rankRadix     = 1 << rankDigitBits
)

// rankWindow maintains a sliding window over one span of a signal. build
// sorts the whole span once — an LSD radix argsort of order-preserving
// integer keys, O(span) — and the window is then a bitset over the span's
// ranks: add and drop are O(1), and kth walks whole-word popcounts from the
// previous answer, so a window whose median drifts slowly pays a few words
// per query. Equal samples get distinct ranks; the k-th set rank still holds
// the k-th smallest sample of the window. The state is 12 bytes and a bit
// per spanned sample plus the digit histogram.
type rankWindow struct {
	span            []float64 // the ranked span, borrowed until putRankWindow
	order, orderTmp []int32   // order[r] is the span index of rank r
	rank            []int32   // rank[j] is the rank of span sample j
	set             []uint64  // bit r is set while the sample of rank r is in the window
	count           int       // samples in the window
	cur, below      int       // cursor word of the last query; set bits in set[:cur]
	hist            [rankDigits][rankRadix]int32
}

// rankWindowPool recycles rank windows so a warm stride's trend pass
// allocates nothing.
var rankWindowPool = sync.Pool{New: func() any { return new(rankWindow) }}

func getRankWindow() *rankWindow { return rankWindowPool.Get().(*rankWindow) }

// putRankWindow drops the borrowed span, so a pooled window never keeps a
// caller's signal alive, and recycles w.
func putRankWindow(w *rankWindow) {
	w.span = nil
	rankWindowPool.Put(w)
}

// orderKey maps a float to a uint64 whose unsigned order is the float's
// total order (-0 before +0; NaNs at the ends by sign).
func orderKey(v float64) uint64 {
	k := math.Float64bits(v)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// build ranks span and empties the window. span must stay unchanged until
// the window is put back.
func (w *rankWindow) build(span []float64) {
	n := len(span)
	w.span = span
	if cap(w.order) < n {
		w.order, w.orderTmp, w.rank = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	order, orderTmp := w.order[:n], w.orderTmp[:n]
	w.hist = [rankDigits][rankRadix]int32{}
	for j, v := range span {
		k := orderKey(v)
		order[j] = int32(j)
		for d := range rankDigits {
			w.hist[d][(k>>(rankDigitBits*d))&(rankRadix-1)]++
		}
	}
	for d := range rankDigits {
		h := &w.hist[d]
		shift := rankDigitBits * d
		if n == 0 || h[(orderKey(span[0])>>shift)&(rankRadix-1)] == int32(n) {
			continue // every key shares this digit: the pass is the identity
		}
		var sum int32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, j := range order {
			b := (orderKey(span[j]) >> shift) & (rankRadix - 1)
			p := h[b]
			h[b] = p + 1
			orderTmp[p] = j
		}
		order, orderTmp = orderTmp, order
	}
	w.order, w.orderTmp = order, orderTmp
	rank := w.rank[:n]
	for r, j := range order {
		rank[j] = int32(r)
	}
	words := (n + 63) / 64
	if cap(w.set) < words {
		w.set = make([]uint64, words)
	}
	w.set = w.set[:words]
	clear(w.set)
	w.count, w.cur, w.below = 0, 0, 0
}

// add puts span sample j into the window.
func (w *rankWindow) add(j int) {
	r := int(w.rank[j])
	w.set[r>>6] |= 1 << (r & 63)
	w.count++
	if r>>6 < w.cur {
		w.below++
	}
}

// drop takes span sample j out of the window.
func (w *rankWindow) drop(j int) {
	r := int(w.rank[j])
	w.set[r>>6] &^= 1 << (r & 63)
	w.count--
	if r>>6 < w.cur {
		w.below--
	}
}

// kth returns the k-th smallest (0-based) sample in the window, which must
// hold more than k samples.
func (w *rankWindow) kth(k int) float64 {
	for w.below > k {
		w.cur--
		w.below -= bits.OnesCount64(w.set[w.cur])
	}
	for {
		c := bits.OnesCount64(w.set[w.cur])
		if w.below+c > k {
			break
		}
		w.below += c
		w.cur++
	}
	word := w.set[w.cur]
	for i := k - w.below; i > 0; i-- {
		word &= word - 1 // clear the lowest set bit
	}
	return w.span[w.order[w.cur<<6+bits.TrailingZeros64(word)]]
}

func (w *rankWindow) median() float64 {
	n := w.count
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return w.kth(n / 2)
	}
	return (w.kth(n/2-1) + w.kth(n/2)) / 2
}
