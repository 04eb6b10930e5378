package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bipie/internal/perfstat"
)

// spec is BENCHMARK.json: the contract the printed metrics are held to. It
// is decoded strictly, so the fields nothing here reads are what keep a
// misspelt or extra key from passing.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkAgainst reports every way a run's metrics differ from the listed
// ones: a name missing, a name unlisted, a unit that differs. (A name
// printed twice cannot get this far: report.add refuses it.)
func checkAgainst(listed []specMetric, got []metric) []string {
	var problems []string
	want := map[string]string{}
	for _, m := range listed {
		want[m.Name] = m.Unit
	}
	for _, m := range got {
		unit, ok := want[m.name]
		switch {
		case !ok:
			problems = append(problems, "printed but not listed: "+m.name)
		case unit != m.unit:
			problems = append(problems, fmt.Sprintf("%s: printed in %s, listed in %s", m.name, m.unit, unit))
		}
		delete(want, m.name)
	}
	for name := range want {
		problems = append(problems, "listed but not printed: "+name)
	}
	sort.Strings(problems)
	return problems
}

// runSmoke runs every workload both ways with 200 ms rounds. It proves the
// plumbing — every listed metric printed once with its unit, nothing
// unlisted, every answer correct — and measures nothing.
func runSmoke(specPath string, seed int64, w io.Writer) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if len(sp.Workloads) != len(workloadNames) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", specPath, len(sp.Workloads), len(workloadNames))
	}
	for _, wl := range sp.Workloads {
		if workloads[wl.Name] == nil {
			return fmt.Errorf("%s lists workload %q, which the benchmark does not have", specPath, wl.Name)
		}
		for _, mode := range []struct {
			label  string
			run    func() (*outcome, error)
			listed []specMetric
		}{
			{"end to end", func() (*outcome, error) { return runEndToEnd(wl.Name, seed, smokeShape()) }, sp.EndToEnd},
			{"traced", func() (*outcome, error) { return runTraced(wl.Name, seed, smokeShape(), "") }, sp.PerLayer},
		} {
			out, err := mode.run()
			if err != nil {
				return err
			}
			if !out.correct() {
				return fmt.Errorf("%s, %s: %d of %d operations failed", wl.Name, mode.label, out.failed, out.attempted)
			}
			if problems := checkAgainst(mode.listed, out.metrics); len(problems) > 0 {
				return fmt.Errorf("%s, %s: %v", wl.Name, mode.label, problems)
			}
			fmt.Fprintf(w, "smoke %-12s %-10s %3d metrics, %d operations, all correct\n", wl.Name, mode.label, len(out.metrics), out.attempted)
		}
	}
	return nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles
// (n=4, exclusive) gives — the acceptance check's own arithmetic.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// exclusive method: position k(n+1)/4, one-based, interpolated
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(pos)
		lo = max(1, min(lo, len(s)-1))
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	if len(s) < 2 {
		return 0
	}
	return (q(3) - q(1)) / median(s)
}

// runAA runs every workload in two sets of n runs, alternating A and B, run
// i of either set at seed i, each run a fresh process exactly as a user
// starts one. Identical code on both sides: whatever differs is the noise
// the bounds must absorb. It writes a Markdown report — for the corrected
// metrics with the spread of the measured values beside that of the
// corrected ones, which is what the correction has to earn its keep against
// — and reports whether every pair of medians agreed within its bound and
// every spread stayed inside it.
func runAA(specPath string, n, seconds int, w io.Writer) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "# A/A: two sets of %d runs of the same code\n\n", n)
	fmt.Fprintf(w, "Machine: hz=%.0f cores=%d GOMAXPROCS=%d %s %s/%s; head=%s; %d s measured per run.\n\n",
		perfstat.Hz(), perfstat.Cores(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitHead(), seconds)
	fmt.Fprintln(w, "`diff` is set B's median against set A's, as a share of A's, signed so that positive is worse.")
	fmt.Fprintln(w, "`spread` is (Q3 − Q1) / median of a set. A row passes when |diff| and both spreads are within the bound.")
	fmt.Fprintln(w, "`raw` is the same statistic as measured, before the division by the interference factor: its median (A, B), its diff and its spreads.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | unit | median A | median B | diff | spread A | spread B | bound | | raw A | raw B | raw diff | raw spread A | raw spread B |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---:|---:|---|---:|---:|---:|---:|---:|")
	allOK := true
	for _, wl := range sp.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		raws := [2]map[string][]float64{{}, {}}
		for i := 1; i <= n; i++ {
			for side := range sets {
				res, raw, err := runChild(self, wl.Name, int64(i), seconds)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", wl.Name, i, err)
				}
				if !res.Correct {
					return false, fmt.Errorf("%s seed %d: %d of %d operations failed", wl.Name, i, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					sets[side][name] = append(sets[side][name], v.Value)
				}
				for name, v := range raw {
					raws[side][name] = append(raws[side][name], v)
				}
			}
		}
		worse := func(a, b []float64, better string) float64 {
			diff := (median(b) - median(a)) / median(a)
			if better == "higher" {
				diff = -diff
			}
			return diff
		}
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			diff := worse(a, b, m.Better)
			sa, sb := quartileSpread(a), quartileSpread(b)
			ok := diff <= m.Bound && -diff <= m.Bound
			// setup_s is held to its medians only, as the driver's
			// acceptance check holds it.
			if m.Name != "setup_s" {
				ok = ok && sa <= m.Bound && sb <= m.Bound
			}
			verdict := "ok"
			if !ok {
				verdict, allOK = "**breach**", false
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %s |",
				wl.Name, m.Name, m.Unit, median(a), median(b), 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
			if ra, rb := raws[0][m.Name], raws[1][m.Name]; len(ra) > 0 {
				fmt.Fprintf(w, " %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% |\n",
					median(ra), median(rb), 100*worse(ra, rb, m.Better), 100*quartileSpread(ra), 100*quartileSpread(rb))
			} else {
				fmt.Fprintln(w, " | | | | |")
			}
		}
		fa, fb := raws[0]["interference_factor"], raws[1]["interference_factor"]
		fmt.Fprintf(w, "| %s | *interference factor* | ratio | %.4g | %.4g | | | | | | range %.3g–%.3g | range %.3g–%.3g | | | |\n",
			wl.Name, median(fa), median(fb), slices.Min(fa), slices.Max(fa), slices.Min(fb), slices.Max(fb))
	}
	fmt.Fprintln(w)
	if allOK {
		fmt.Fprintln(w, "Every metric of every workload agreed within its bound.")
	} else {
		fmt.Fprintln(w, "At least one metric breached its bound.")
	}
	return allOK, nil
}

// runChild runs one untraced run as a process of its own and parses the
// result line and the measured values printed before it.
func runChild(self, workload string, seed int64, seconds int) (*result, map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	raw := map[string]float64{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, rawPrefix); ok {
			var name, unit string
			var v float64
			if _, err := fmt.Sscan(rest, &name, &v, &unit); err != nil {
				return nil, nil, fmt.Errorf("line %q: %w", l, err)
			}
			raw[name] = v
		}
	}
	return &res, raw, nil
}
