package costmodel

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// profileJSON is the checked-in profile: what `bipie-bench calibrate`
// printed on the machine the repository benchmark runs on. `make
// calibrate` regenerates it; nothing writes it at run time.
//
//go:embed profile.json
var profileJSON []byte

// Check reports why a profile cannot price a plan, naming the field: a
// Format other than FormatVersion, or an aggregation coefficient that is
// not strictly positive (a zero one would price its strategy as free).
// Static(), Calibrate() and the checked-in profile pass; the engine
// refuses a supplied profile that does not.
func (p *Profile) Check() error {
	if p.Format != FormatVersion {
		return fmt.Errorf("costmodel: profile Format %d, want %d", p.Format, FormatVersion)
	}
	a := &p.Agg
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"InRegPerGroup1", a.InRegPerGroup1}, {"InRegPerGroup2", a.InRegPerGroup2},
		{"InRegPerGroup4", a.InRegPerGroup4}, {"SortFixed", a.SortFixed}, {"SortPerSum", a.SortPerSum},
		{"MultiFixed", a.MultiFixed}, {"MultiPerSum", a.MultiPerSum}, {"ScalarPerSum", a.ScalarPerSum},
		{"ScalarMixedPerSum", a.ScalarMixedPerSum}, {"CountScalar", a.CountScalar},
		{"CountInRegPerGroup", a.CountInRegPerGroup}, {"ReducePerSum", a.ReducePerSum},
	} {
		if !(c.v > 0) {
			return fmt.Errorf("costmodel: profile Agg.%s = %v, want > 0", c.field, c.v)
		}
	}
	return nil
}

// valid reports whether a decoded profile can stand in for the checked-in
// one: it passes Check and carries calibrated kernels.
func (p *Profile) valid() bool { return p.calibrated() && p.Check() == nil }

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
