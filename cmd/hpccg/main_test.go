package main

import "testing"

// TestParseKill checks -kill parsing for a -procs 8 -mode classic run:
// 4 logical ranks at degree 2.
func TestParseKill(t *testing.T) {
	const logical = 4
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"1:0@0.5", true},
		{"9:0@0.5", false},  // rank outside [0, 4)
		{"1:2@0.5", false},  // lane outside [0, 2)
		{"1:0@-1", false},   // negative fraction
		{"1:0@NaN", false},  // non-finite fraction
		{"1:0@+Inf", false}, // non-finite fraction
		{"1:0@0.5x", false}, // trailing text
	} {
		rank, lane, frac, err := parseKill(tc.spec, logical)
		if (err == nil) != tc.ok {
			t.Errorf("parseKill(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
		}
		if tc.ok && (rank != 1 || lane != 0 || frac != 0.5) {
			t.Errorf("parseKill(%q) = %d, %d, %v; want 1, 0, 0.5", tc.spec, rank, lane, frac)
		}
	}
}
