package main

import "testing"

func TestQuantileNeedsTenBeyond(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // unsorted input: 1000 … 1
	}
	if v, n, ok := s.quantile(0.99); !ok || n != 1000 || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (n=%d ok=%v), want 990 with 10 beyond", v, n, ok)
	}
	if _, _, ok := s[:999].quantile(0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond its rank and must not be reported")
	}
	if v, _, ok := s.quantile(0.5); !ok || v != 500 {
		t.Fatalf("p50 = %v ok=%v, want 500", v, ok)
	}
	if _, _, ok := samples(nil).quantile(0.5); ok {
		t.Fatal("empty set reported a quantile")
	}
}

func TestQuantileWithinMinMax(t *testing.T) {
	// Heavy ties and a far outlier: every reported value must be one of
	// the samples, so it can never exceed the max or undercut the min.
	s := samples{}
	for i := 0; i < 200; i++ {
		s = append(s, 3)
	}
	s = append(s, 1e9)
	for _, q := range []float64{0.5, 0.9, 0.95} {
		v, _, ok := s.quantile(q)
		if !ok {
			t.Fatalf("q=%v not reported on 201 samples", q)
		}
		if v < 3 || v > 1e9 {
			t.Fatalf("q=%v = %v outside [3, 1e9]", q, v)
		}
	}
}

func TestMedianAndFractionAbove(t *testing.T) {
	s := samples{5, 1, 3, 40}
	if m := s.median(); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	if f := s.fractionAbove(4); f != 0.5 {
		t.Fatalf("fractionAbove(4) = %v, want 0.5", f)
	}
}

func TestWindowedIgnoresOneStall(t *testing.T) {
	// 10000 samples at 1 ms, 200 of them stalled at 50 ms: the plain p99
	// lands on the stall, the windowed one (three windows) does not.
	s := make(samples, 10000)
	for i := range s {
		s[i] = 1
		if i >= 3000 && i < 3200 {
			s[i] = 50
		}
	}
	if v, _, _ := s.quantile(0.99); v != 50 {
		t.Fatalf("plain p99 = %v, want the stall's 50", v)
	}
	if v, n, ok := s.windowed(0.99); !ok || n != 10000 || v != 1 {
		t.Fatalf("windowed p99 = %v (n=%d ok=%v), want 1", v, n, ok)
	}
	// Too few samples for two windows: same as the plain quantile.
	short := s[:5000]
	a, _, okA := short.windowed(0.99)
	b, _, okB := short.quantile(0.99)
	if a != b || okA != okB {
		t.Fatalf("one window: windowed %v/%v, quantile %v/%v", a, okA, b, okB)
	}
}
