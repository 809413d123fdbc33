package main

import "testing"

// The calibration is the yardstick every simulator time is measured
// against; it must do the same work on every run.
func TestCalibrateIsFixedWork(t *testing.T) {
	if got := calibrate(calibSteps); got != calibSum {
		t.Fatalf("calibrate(%d) = %d, want %d", calibSteps, got, calibSum)
	}
}
