package main

import "testing"

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // reversed: quantile must sort
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{n: 100, q: 0.50, want: 50},
		{n: 101, q: 0.50, want: 51},
		{n: 1000, q: 0.99, want: 990},
		{n: 2000, q: 0.99, want: 1980},
	} {
		if got, _ := seq(tc.n).quantile(tc.q); got != tc.want {
			t.Errorf("n=%d q=%v: got %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{n: 999, q: 0.99, want: false}, // rank 990: 9 beyond
		{n: 1000, q: 0.99, want: true}, // rank 990: 10 beyond
		{n: 19, q: 0.50, want: false},  // rank 10: 9 beyond
		{n: 20, q: 0.50, want: true},   // rank 10: 10 beyond
		{n: 0, q: 0.50, want: false},
	} {
		if _, ok := seq(tc.n).quantile(tc.q); ok != tc.want {
			t.Errorf("n=%d q=%v: reportable %v, want %v", tc.n, tc.q, ok, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}

// A tail percentile is the median of the windows' percentiles, so one
// disturbed window does not set it.
func TestWindowedQuantileMedianOfWindows(t *testing.T) {
	s := make(samples, 0, 3000)
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := float64(i + 1)
			if w == 1 {
				v *= 100 // the disturbed window
			}
			s = append(s, v)
		}
	}
	got, per, ok := s.windowedQuantile(0.99)
	if !ok || len(per) != 3 || got != 990 {
		t.Errorf("got %v over windows %v (reportable %v), want 990 over 3", got, per, ok)
	}
	if _, _, ok := s[:999].windowedQuantile(0.99); ok {
		t.Error("999 samples leave fewer than ten beyond p99 but were reported")
	}
}
