package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// child runs one workload in a process of its own — so no run inherits
// another's heap, page cache warmth aside — and parses the two lines it
// prints. A run that finished but was wrong still returns its report.
func child(name string, seed int64, seconds float64, trace int, smokeRun bool) (*runInfo, *report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
	}
	if smokeRun {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s seed %d: no result (%v)", name, seed, runErr)
	}
	var info runInfo
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, nil, err
	}
	return &info, &rep, nil
}

var errIncorrect = errors.New("at least one run was incorrect or left its regime")

// runAll runs every workload once with tracing off and once traced, and
// prints one object per workload with both metric families.
func runAll(seed int64, seconds float64, smokeRun bool) error {
	allCorrect := true
	for _, w := range workloads {
		e2eInfo, e2e, err := child(w.name, seed, seconds, 0, smokeRun)
		if err != nil {
			return err
		}
		layerInfo, layer, err := child(w.name, seed, seconds, 1, smokeRun)
		if err != nil {
			return err
		}
		for k, v := range layerInfo.Samples {
			e2eInfo.Samples[k] = v
		}
		allCorrect = allCorrect && e2e.Correct && layer.Correct
		printJSON(map[string]any{
			"workload": w.name, "seed": seed, "records": e2eInfo.Records, "buckets": e2eInfo.Buckets,
			"ops_sha256": e2eInfo.OpsSHA256, "samples": e2eInfo.Samples, "notes": e2eInfo.Notes,
			"correct": e2e.Correct && layer.Correct, "failures": append(e2eInfo.Failures, layerInfo.Failures...),
			"attempted": e2e.Attempted + layer.Attempted, "failed": e2e.Failed + layer.Failed,
			"end_to_end": e2e.Metrics, "per_layer": layer.Metrics,
		})
	}
	if !allCorrect {
		return errIncorrect
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule the
// driver judges spreads by.
func quartiles(xs []float64) (q [3]float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 2 {
		if len(s) == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// runRepeat runs one workload, or all, n times on seeds seed..seed+n-1 and prints,
// per end-to-end metric, the median, the quartiles and their distance as a
// share of the median against the bound BENCHMARK.json fixes; then one traced
// run per workload on the first seed, for the per-layer figures.
func runRepeat(n int, only string, seed int64, seconds float64, smokeRun bool) error {
	if _, ok := workloadByName(only); !ok && only != "all" {
		return fmt.Errorf("unknown workload %q", only)
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	allCorrect := true
	fmt.Printf("| workload | metric | unit | n | median | q1 | q3 | spread | bound | within bound/3 |\n|---|---|---|---|---|---|---|---|---|---|\n")
	layers := map[string]map[string]metric{}
	for _, w := range workloads {
		if only != "all" && only != w.name {
			continue
		}
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			_, rep, err := child(w.name, seed+int64(i), seconds, 0, smokeRun)
			if err != nil {
				return err
			}
			allCorrect = allCorrect && rep.Correct
			for name, m := range rep.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		for _, d := range bf.EndToEnd {
			q := quartiles(vals[d.Name])
			spread := (q[2] - q[0]) / q[1]
			fmt.Printf("| %s | %s | %s | %d | %.5g | %.5g | %.5g | %.4f | %.2f | %v |\n",
				w.name, d.Name, d.Unit, len(vals[d.Name]), q[1], q[0], q[2], spread, d.Bound, spread <= d.Bound/3)
		}
		_, rep, err := child(w.name, seed, seconds, 1, smokeRun)
		if err != nil {
			return err
		}
		allCorrect = allCorrect && rep.Correct
		layers[w.name] = rep.Metrics
	}

	fmt.Printf("\n| per-layer metric (seed %d) | unit", seed)
	for _, w := range workloads {
		fmt.Printf(" | %s", w.name)
	}
	fmt.Printf(" |\n|---|---%s|\n", strings.Repeat("|---", len(workloads)))
	for _, d := range perLayer {
		fmt.Printf("| %s | %s", d.name, d.unit)
		for _, w := range workloads {
			fmt.Printf(" | %.5g", layers[w.name][d.name].Value)
		}
		fmt.Println(" |")
	}
	if !allCorrect {
		return errIncorrect
	}
	return nil
}
