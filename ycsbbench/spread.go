package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spread reads the result line of each saved run and prints, per metric,
// the median, the quartiles and the interquartile range as a share of the
// median — the run-to-run spread a metric's bound is judged against.
func spread(out io.Writer, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("need at least two run outputs, got %d", len(files))
	}
	values := map[string][]float64{}
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			return err
		}
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-34s %4s %14s %14s %14s %8s\n", "metric", "n", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		q1, q2, q3, _ := quartiles(values[k])
		rel := 0.0
		if q2 != 0 {
			rel = (q3 - q1) / q2
		}
		fmt.Fprintf(out, "%-34s %4d %14.4f %14.4f %14.4f %8.4f\n", k, len(values[k]), q1, q2, q3, rel)
	}
	return nil
}

// readResult parses the last non-empty line of a saved run output.
func readResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &r, nil
}
