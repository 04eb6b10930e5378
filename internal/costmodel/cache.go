package costmodel

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Profile selection and persistence. The resolution order of Active():
//
//  1. BIPIE_COSTMODEL=static        → the static profile, no probes run
//  2. BIPIE_COSTMODEL=<path>        → load that Profile JSON file; fatal
//     to ignore a profile the user named, so a bad file falls back to
//     static loudly via stderr rather than silently calibrating
//  3. cache file for this machine's signature → reuse
//  4. run Calibrate(), write the cache file best-effort
//
// The cache lives in os.UserCacheDir()/bipie/costmodel-<sig>.json (override
// the exact path with BIPIE_COSTMODEL_CACHE). The signature buckets Hz to
// 100MHz so boost-clock jitter between runs does not force recalibration,
// but a different core count, architecture, or materially different clock
// does.

// hzBucket rounds an Hz estimate to the nearest 100MHz for signature
// stability across runs on the same part.
func hzBucket(hz float64) int { return int(hz/1e8 + 0.5) }

// Signature is the cache key for a machine: architecture, logical cores,
// and the bucketed clock estimate.
func Signature(m Machine) string {
	return fmt.Sprintf("%s-c%d-hz%d", m.GOARCH, m.Cores, hzBucket(m.HzEstimate))
}

// SameMachine reports whether two machine records share a signature — the
// test for whether a cached or archived profile applies here.
func SameMachine(a, b Machine) bool { return Signature(a) == Signature(b) }

// binarySig fingerprints the running executable (name, size, mtime). A
// rebuild can change the kernels the probes measured, so the lazy cache
// only reuses a profile fitted by the exact same binary; explicit loads
// (BIPIE_COSTMODEL=<path>, bench archives) skip this check because naming
// a file is an explicit acceptance of its figures.
func binarySig() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	st, err := os.Stat(exe)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%s-%d-%d", filepath.Base(exe), st.Size(), st.ModTime().UnixNano())
}

// CachePath returns the profile cache path for a machine signature,
// honoring the BIPIE_COSTMODEL_CACHE override. Empty (with an error) when
// no user cache directory exists.
func CachePath(m Machine) (string, error) {
	if p := os.Getenv("BIPIE_COSTMODEL_CACHE"); p != "" {
		return p, nil
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "bipie", "costmodel-"+Signature(m)+".json"), nil
}

// Save writes the profile to path atomically (temp file + rename),
// creating parent directories as needed.
func (p *Profile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".costmodel-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a profile JSON file: what Save writes and what
// `bipie-bench calibrate` prints.
func LoadFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err == nil && p.valid() {
		return &p, nil
	}
	return nil, fmt.Errorf("costmodel: %s holds no usable profile", path)
}

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

// loadCache returns the cached profile for this machine, or nil when the
// cache is absent, unreadable, or was fitted on a different signature.
func loadCache(m Machine) *Profile {
	path, err := CachePath(m)
	if err != nil {
		return nil
	}
	p, err := LoadFile(path)
	if err != nil || !SameMachine(p.Machine, m) || p.Binary != binarySig() {
		return nil
	}
	p.Source = "cache"
	return p
}

var (
	activeMu sync.Mutex
	active   *Profile
)

// Active returns the process-wide profile, resolving it on first call (see
// the package comment for the order) and caching the result. Concurrent
// first calls calibrate once.
func Active() *Profile {
	activeMu.Lock()
	defer activeMu.Unlock()
	if active == nil {
		active = resolve()
	}
	return active
}

// SetActive overrides the process-wide profile (nil re-enables lazy
// resolution). Used by the CLI \calibrate command and by tests.
func SetActive(p *Profile) {
	activeMu.Lock()
	active = p
	activeMu.Unlock()
}

func resolve() *Profile {
	switch env := os.Getenv("BIPIE_COSTMODEL"); {
	case env == "static":
		return Static()
	case env != "":
		p, err := LoadFile(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "costmodel: BIPIE_COSTMODEL: %v; using static profile\n", err)
			return Static()
		}
		return p
	}
	m := CurrentMachine()
	if p := loadCache(m); p != nil {
		return p
	}
	p := Calibrate()
	if path, err := CachePath(m); err == nil {
		_ = p.Save(path) // best-effort: a read-only cache dir costs a recalibration next run, nothing else
	}
	return p
}
