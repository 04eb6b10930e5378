package costmodel

import (
	_ "embed"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// profileJSON is the checked-in profile: what `bipie-bench calibrate`
// printed on the machine the repository benchmark runs on. `make
// calibrate` regenerates it; nothing writes it at run time.
//
//go:embed profile.json
var profileJSON []byte

// valid reports whether a decoded profile is usable: the current
// coefficient format, calibrated kernels, plus strictly positive
// aggregation coefficients (a zero coefficient would price a strategy as
// free and poison every comparison).
func (p *Profile) valid() bool {
	if !p.calibrated() || p.Format != FormatVersion {
		return false
	}
	a := &p.Agg
	for _, v := range []float64{
		a.InRegPerGroup1, a.InRegPerGroup2, a.InRegPerGroup4,
		a.SortFixed, a.SortPerSum, a.MultiFixed, a.MultiPerSum, a.ScalarPerSum,
		a.CountScalar, a.CountInRegPerGroup, a.ReducePerSum,
	} {
		if v <= 0 {
			return false
		}
	}
	return true
}

// checkedIn parses the embedded profile once. A file that does not parse
// or validate yields the static profile; TestCheckedInProfile keeps such a
// file from shipping.
var checkedIn = sync.OnceValue(func() *Profile {
	var p Profile
	if err := json.Unmarshal(profileJSON, &p); err != nil || !p.valid() {
		return Static()
	}
	p.Source = "checked-in"
	return &p
})

// override is the profile SetActive installed, nil for the checked-in one.
var override atomic.Pointer[Profile]

// Active returns the process-wide profile: the one SetActive installed,
// else the checked-in one. It runs no probes and takes no lock.
func Active() *Profile {
	if p := override.Load(); p != nil {
		return p
	}
	return checkedIn()
}

// SetActive overrides the process-wide profile; nil restores the
// checked-in one. Used by the CLI \calibrate command, the repository
// benchmark and tests.
func SetActive(p *Profile) { override.Store(p) }
