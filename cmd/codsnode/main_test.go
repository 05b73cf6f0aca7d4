package main

import (
	"slices"
	"testing"
)

// TestParseDomain: -domain comes from outside the program. Every refusal
// below is parseDomain's own ("bad -domain"), none is left to sfc's extent
// check — including the negative extent and the literal that overflows an
// int, which the digit loop this replaced wrapped around silently.
func TestParseDomain(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int // nil: refused
	}{
		{"32x32x32", []int{32, 32, 32}},
		{"4", []int{4}},
		{"", nil},
		{"x4", nil},
		{"4x", nil},
		{"4xx4", nil},
		{"4x-1", nil},
		{"4x0", nil},
		{"4x 4", nil},
		{"4X4", nil},
		{"99999999999999999999x2", nil},
	} {
		got, err := parseDomain(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseDomain(%q) = %v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseDomain(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}
