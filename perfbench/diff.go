package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runDiff compares traced reports, typically the parent's and a change's
// at the same seed. old and new are report files or directories holding
// trace-*.json reports; workloads are matched by name. For each workload
// it prints every layer's self ns per critical section on both sides, the
// signed change, and the layer's count per critical section; a count that
// moved is flagged, because it means the two sides did different work, not
// the same work faster.
func runDiff(oldPath, newPath string, out io.Writer) error {
	olds, err := loadReports(oldPath)
	if err != nil {
		return err
	}
	news, err := loadReports(newPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range olds {
		if _, ok := news[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("diff: no workload is in both %s and %s", oldPath, newPath)
	}
	sort.Strings(names)
	for _, name := range names {
		writeDiff(out, olds[name], news[name])
	}
	return nil
}

// loadReports reads one report, or every trace-*.json in a directory,
// keyed by workload.
func loadReports(path string) (map[string]traceReport, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "trace-*.json"))
		if err != nil {
			return nil, err
		}
	}
	reps := map[string]traceReport{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep traceReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		if rep.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", f, rep.Schema, reportSchema)
		}
		if rep.CS == 0 {
			return nil, fmt.Errorf("%s: report has no critical sections", f)
		}
		reps[rep.Workload] = rep
	}
	return reps, nil
}

// writeDiff prints one workload's signed per-layer ledger.
func writeDiff(out io.Writer, old, cur traceReport) {
	fmt.Fprintf(out, "%s (seed %d -> %d): self ns per critical section, new minus old\n", old.Workload, old.Seed, cur.Seed)
	fmt.Fprintf(out, "  %-12s %10s %10s %10s %8s   %12s %12s\n", "layer", "old", "new", "delta", "delta%", "old count/cs", "new count/cs")
	newRows := map[string]layerRow{}
	for _, r := range cur.Layers {
		newRows[r.Layer] = r
	}
	var oldTot, newTot float64
	moved := 0
	for _, o := range old.Layers {
		n := newRows[o.Layer]
		ov := float64(o.SelfNs) / float64(old.CS)
		nv := float64(n.SelfNs) / float64(cur.CS)
		oldTot += ov
		newTot += nv
		flag := ""
		if o.Count != n.Count || old.CS != cur.CS {
			flag = "  COUNT MOVED"
			moved++
		}
		fmt.Fprintf(out, "  %-12s %10.1f %10.1f %+10.1f %+7.1f%%   %12.4f %12.4f%s\n", o.Layer, ov, nv, nv-ov, pct(nv, ov),
			float64(o.Count)/float64(old.CS), float64(n.Count)/float64(cur.CS), flag)
	}
	fmt.Fprintf(out, "  %-12s %10.1f %10.1f %+10.1f %+7.1f%%\n", "total", oldTot, newTot, newTot-oldTot, pct(newTot, oldTot))
	if moved > 0 {
		fmt.Fprintf(out, "  %d layer count(s) moved: the two runs did different work, so their times do not compare as a speed-up\n", moved)
	}
	fmt.Fprintln(out)
}

func pct(now, was float64) float64 {
	if was == 0 {
		return 0
	}
	return 100 * (now - was) / was
}
