package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics, which have none
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// runCompare prints one row per (workload, metric) of two result files
// with both medians and the change. A metric whose new median is worse
// than the old one by more than its bound is a REGRESSION, unless the
// new quartiles straddle the bound's limit: then it is unresolved. The
// exit status is 1 when any metric regressed.
func runCompare(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var old, cur resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {oldPath, &old}, {newPath, &cur}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	type key struct {
		workload string
		traced   bool
	}
	before := map[key]result{}
	for _, r := range old.Results {
		before[key{r.Workload, r.Traced}] = r
	}
	regressed := false
	fmt.Fprintf(stdout, "%-13s %-30s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, r := range cur.Results {
		o, ok := before[key{r.Workload, r.Traced}]
		if !ok {
			fmt.Fprintf(stdout, "%-13s (not in %s)\n", r.Workload, oldPath)
			continue
		}
		metrics := spec.EndToEnd
		if r.Traced {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			was, okOld := o.Metrics[m.Name]
			now, okNew := r.Metrics[m.Name]
			if !okOld || !okNew || was.N == 0 || now.N == 0 {
				fmt.Fprintf(stdout, "%-13s %-30s %14s %14s %9s  missing\n", r.Workload, m.Name, "", "", "")
				continue
			}
			v := verdict(m, was, now)
			regressed = regressed || v == "REGRESSION"
			fmt.Fprintf(stdout, "%-13s %-30s %14.6g %14.6g %+8.1f%%  %s\n",
				r.Workload, m.Name, was.Value, now.Value, 100*(now.Value-was.Value)/was.Value, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict judges one metric against its bound.
func verdict(m metricSpec, old, cur stat) string {
	if m.Bound == 0 {
		return "-"
	}
	limit := old.Value * (1 + m.Bound)
	worse := cur.Value > limit
	if m.Better == "higher" {
		limit = old.Value * (1 - m.Bound)
		worse = cur.Value < limit
	}
	switch {
	case cur.Q1 <= limit && limit <= cur.Q3:
		return "unresolved"
	case worse:
		return "REGRESSION"
	}
	return "ok"
}
