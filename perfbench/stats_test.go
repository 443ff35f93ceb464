package main

import (
	"math"
	"testing"
)

func TestBetaInc(t *testing.T) {
	// I_0.4(2, 3) = sum over j = 2..4 of C(4, j) 0.4^j 0.6^(4-j).
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-12 {
		t.Fatalf("I_0.4(2, 3) = %v, want 0.5248", got)
	}
	if got := betaInc(69.35, 3.65, 0.99); math.Abs(got+betaInc(3.65, 69.35, 0.01)-1) > 1e-12 {
		t.Fatalf("I_x(a, b) + I_1-x(b, a) = %v, want 1", got+betaInc(3.65, 69.35, 0.01))
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 72)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	// The weights of a symmetric sample's median are symmetric too.
	if got := hdQuantile(xs, 0.5); math.Abs(got-36.5) > 1e-9 {
		t.Fatalf("median of 1..72 = %v, want 36.5", got)
	}
	// 68.900 is the same weighted mean with the Beta weights integrated
	// numerically.
	if got := hdQuantile(xs, 0.95); math.Abs(got-68.900) > 0.001 {
		t.Fatalf("p95 of 1..72 = %v, want 68.900", got)
	}
	if hdQuantile(nil, 0.95) != 0 {
		t.Fatal("empty sample")
	}
}
