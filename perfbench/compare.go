package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json the compare mode reads.
type benchFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRun is one run's output as saved to a file: the environment
// header line and the result line.
type savedRun struct {
	path     string
	workload string
	res      result
}

// readRuns loads every regular file in dir as a saved run output.
func readRuns(dir string) ([]savedRun, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []savedRun
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		p := filepath.Join(dir, e.Name())
		sr, err := readRun(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, sr)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return out, nil
}

func readRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, err
	}
	if len(lines) < 2 {
		return savedRun{}, fmt.Errorf("want an environment line and a result line")
	}
	sr := savedRun{path: path}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sr.res); err != nil {
		return savedRun{}, fmt.Errorf("result line: %w", err)
	}
	var head struct {
		Env envHeader `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &head); err != nil || head.Env.Workload == "" {
		return savedRun{}, fmt.Errorf("no environment line before the result")
	}
	sr.workload = head.Env.Workload
	return sr, nil
}

// verdict compares one workload × metric across the two sides.
type verdict struct {
	medA, medB       float64
	q1A, q3A         float64
	q1B, q3B         float64
	spreadA, spreadB float64 // (q3 - q1) / median
	worse            float64 // how much worse B's median is than A's, as a share
	agree            bool
}

func judge(a, b []float64, better string, bound float64, spreadChecked bool) verdict {
	var v verdict
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(b)
	v.spreadA, v.spreadB = spread(v.q1A, v.medA, v.q3A), spread(v.q1B, v.medB, v.q3B)
	if v.medA != 0 {
		v.worse = (v.medB - v.medA) / v.medA
		if better == "higher" {
			v.worse = -v.worse
		}
	}
	v.agree = v.worse <= bound
	if spreadChecked {
		v.agree = v.agree && v.spreadA <= bound && v.spreadB <= bound
	}
	return v
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// compareMain is the compare mode: perfbench compare [-bench FILE] DIR_A DIR_B.
// Each directory holds saved outputs of runs, one file per run. It exits
// 1 when a run failed its check or a metric disagrees beyond its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] DIR_A DIR_B")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	sides := make([][]savedRun, 2)
	for i := range sides {
		if sides[i], err = readRuns(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	code := 0
	byWorkload := func(runs []savedRun) map[string][]savedRun {
		m := map[string][]savedRun{}
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
			if !r.res.Correct || r.res.Failed > 0 {
				fmt.Printf("FAILED RUN %s: correct=%t failed=%d/%d\n", r.path, r.res.Correct, r.res.Failed, r.res.Attempted)
				code = 1
			}
		}
		return m
	}
	a, b := byWorkload(sides[0]), byWorkload(sides[1])
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\truns\tA median\tA q1..q3\tA spread\tB median\tB q1..q3\tB spread\tB worse by\tbound\tverdict\t")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			v := judge(va, vb, m.Better, m.Bound, m.Name != "setup_s")
			verdict := "agree"
			if !v.agree {
				verdict = "DISAGREE"
				code = 1
			} else if m.Name != "setup_s" && (v.spreadA >= m.Bound/3 || v.spreadB >= m.Bound/3) {
				verdict = "agree (spread over bound/3)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g\t%.4g..%.4g\t%.3f\t%.4g\t%.4g..%.4g\t%.3f\t%+.3f\t%.2f\t%s\t\n",
				w, m.Name, len(va), len(vb), v.medA, v.q1A, v.q3A, v.spreadA, v.medB, v.q1B, v.q3B, v.spreadB, v.worse, m.Bound, verdict)
		}
	}
	tw.Flush()
	for w := range a {
		if _, ok := b[w]; !ok {
			fmt.Printf("workload %s only in %s\n", w, fs.Arg(0))
		}
	}
	for w := range b {
		if _, ok := a[w]; !ok {
			fmt.Printf("workload %s only in %s\n", w, fs.Arg(1))
		}
	}
	return code
}

// values collects one metric across runs.
func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
