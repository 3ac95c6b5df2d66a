package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every end-to-end metric × workload present in
// both result files, each side's median and quartiles and a verdict:
//
//	within-bound  B's median is no worse than A's by more than the bound
//	regression    it is worse by more than the bound
//	unresolved    either side's own spread (q3−q1 over median) exceeds the
//	              bound, so the runs cannot tell (choosing-metrics §6.5)
//	not-gated     the metric is reported but not judged (see gate)
//
// Each workload gets its own row. A is the parent, B the change; two sets
// of runs of one commit make the benchmark's own acceptance check.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	collect := func(rf *resultFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rf.Runs {
			if r.Traced {
				continue // end-to-end metrics come from untraced runs
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, mv := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	fmt.Fprintf(w, "A = %s (commit %s, %d runs)\nB = %s (commit %s, %d runs)\n\n",
		pathA, a.Provenance.Commit, len(a.Runs), pathB, b.Provenance.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-16s %-24s %-6s %36s %36s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	counts := map[string]int{}
	for i := range workloads {
		wl := workloads[i].name
		for _, d := range endToEnd {
			sa, sb := va[wl][d.name], vb[wl][d.name]
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(sa)
			q1b, mb, q3b := quartiles(sb)
			verdict, change := judge(d, ma, mb, q3a-q1a, q3b-q1b)
			if d.gate == notGated {
				verdict = "not-gated"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-16s %-24s %-6s %36s %36s %+7.1f%% %5.0f%%  %s\n", wl, d.name, d.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, q1a, q3a), fmt.Sprintf("%.4g [%.4g, %.4g]", mb, q1b, q3b),
				change*100, d.bound*100, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d within-bound, %d regression, %d unresolved (%d not gated)\n",
		counts["within-bound"], counts["regression"], counts["unresolved"], counts["not-gated"])
	return nil
}

// judge returns the verdict for one metric × workload and B's relative
// change against A (positive: B's median is larger).
func judge(d metricDef, medA, medB, iqrA, iqrB float64) (verdict string, change float64) {
	if medA == 0 {
		// failed_ops_ratio: expected 0 on both sides, absolute bound 0.
		if medB > 0 {
			return "regression", 0
		}
		return "within-bound", 0
	}
	change = (medB - medA) / medA
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	spread := max(iqrA/medA, iqrB/max(medB, 1e-12))
	switch {
	case spread > d.bound:
		return "unresolved", change
	case worse > d.bound:
		return "regression", change
	}
	return "within-bound", change
}
