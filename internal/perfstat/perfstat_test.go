package perfstat

import (
	"testing"
	"time"
)

func TestHzPlausible(t *testing.T) {
	hz := Hz()
	// Anything outside 200 MHz – 10 GHz is a calibration bug, not a CPU.
	if hz < 2e8 || hz > 1e10 {
		t.Fatalf("calibrated frequency %.2e Hz implausible", hz)
	}
	if Hz() != hz {
		t.Fatal("frequency not memoized")
	}
}

func TestCyclesPerRow(t *testing.T) {
	hz := Hz()
	// One second over hz rows is by definition 1 cycle/row.
	if got := CyclesPerRow(time.Second, int(hz)); got < 0.99 || got > 1.01 {
		t.Fatalf("CyclesPerRow = %v, want ~1", got)
	}
	if CyclesPerRow(time.Second, 0) != 0 {
		t.Fatal("zero rows must not divide by zero")
	}
}

func TestMeasurementUnits(t *testing.T) {
	m := Measurement{Rows: 1000, Elapsed: time.Millisecond}
	perRow := m.CyclesPerRow()
	if perRow <= 0 {
		t.Fatal("non-positive cycles/row")
	}
	if want := CyclesPerRow(m.Elapsed, m.Rows); perRow != want {
		t.Fatalf("Measurement.CyclesPerRow = %v, want %v", perRow, want)
	}
}

func TestTimeReportsMedian(t *testing.T) {
	calls := 0
	m := Time(100, 0, func() {
		calls++
		time.Sleep(200 * time.Microsecond)
	})
	if calls < 3 {
		t.Fatalf("Time ran fn %d times, want >= 3", calls)
	}
	if m.Rows != 100 {
		t.Fatalf("Rows=%d", m.Rows)
	}
	if m.Elapsed < 100*time.Microsecond || m.Elapsed > 20*time.Millisecond {
		t.Fatalf("median elapsed %v implausible for a 200µs sleep", m.Elapsed)
	}
}

func TestCalibrateHzPlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop is slow")
	}
	hz := calibrateHz()
	if hz < 2e8 || hz > 1e10 {
		t.Fatalf("chain-calibrated frequency %.2e Hz implausible", hz)
	}
}
