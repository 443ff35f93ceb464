package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics), or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs, or 0
// for an empty sample: the mean of the order statistics weighted by a
// Beta(q(n+1), (1-q)(n+1)) distribution. A p95 of a few dozen latencies
// read from a single order statistic is the largest or second largest
// sample; the weighted mean draws on the whole upper tail and moves less
// from run to run.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += x * (cur - prev)
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (Numerical Recipes, section 6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of betaInc (modified Lentz).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// parts is the number of consecutive parts of a measured phase that the
// update percentiles are taken over.
const parts = 3

// phaseQuantile reports the median over the measured phase's parts of
// each part's Harrell-Davis q-quantile; part[i] is the part sample xs[i]
// falls in. A passing stall on the shared host moves one part's
// quantile, which the median then ignores.
func phaseQuantile(xs []float64, part []int, q float64) float64 {
	var per [parts][]float64
	for i, x := range xs {
		per[part[i]] = append(per[part[i]], x)
	}
	qs := make([]float64, 0, parts)
	for _, p := range per {
		if len(p) > 0 {
			qs = append(qs, hdQuantile(p, q))
		}
	}
	return quantile(qs, 0.5)
}

// phaseRate reports the median over the measured phase's parts of each
// part's rate, the sum of num over the sum of den of the samples in it.
func phaseRate(num, den []float64, part []int) float64 {
	var n, d [parts]float64
	for i := range num {
		n[part[i]] += num[i]
		d[part[i]] += den[i]
	}
	rs := make([]float64, 0, parts)
	for p := range n {
		if d[p] > 0 {
			rs = append(rs, n[p]/d[p])
		}
	}
	return quantile(rs, 0.5)
}

// partOf places offset, measured from the start of a phase of length
// total, in one of the phase's parts.
func partOf(offset, total float64) int {
	return max(0, min(parts-1, int(parts*offset/total)))
}

// durQuantile is quantile over durations, scaled to unit (e.g.
// time.Millisecond reports milliseconds).
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time so far (getrusage),
// covering every goroutine: fleet, generator, subscribers and reader.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// totalAlloc is the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rtSample is a runtime/metrics reading: GC and total CPU time and the
// scheduler-latency histogram.
type rtSample struct {
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		out.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return out
}

// runtimeDelta reports the GC share of CPU time and the p95 scheduler
// latency (ms) between two readings.
func runtimeDelta(a, b rtSample) (gcFrac, schedP95ms float64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return gcFrac, 0
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return gcFrac, 0
	}
	// Interpolate linearly inside the bucket that holds the p95 rank;
	// where the top bucket is open, report its lower edge.
	rank := 0.95 * float64(total)
	var acc float64
	for i, c := range counts {
		if c == 0 || acc+float64(c) < rank {
			acc += float64(c)
			continue
		}
		lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
		if math.IsInf(hi, 1) {
			return gcFrac, lo * 1e3
		}
		if math.IsInf(lo, -1) {
			lo = 0
		}
		return gcFrac, (lo + (hi-lo)*(rank-acc)/float64(c)) * 1e3
	}
	return gcFrac, 0
}
