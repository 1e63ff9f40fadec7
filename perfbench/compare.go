package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain compares two result files written by runs of the same
// workload (base, then candidate): each end-to-end metric's change as a
// share of the base, against its bound. Results from unlike hosts are
// reported but not gated. It returns the process exit code: 1 when a
// metric of like hosts regressed beyond its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json> <candidate.json>")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	base, cand := rs[0], rs[1]
	if base.Workload != cand.Workload || base.Trace || cand.Trace {
		fmt.Fprintf(os.Stderr, "perfbench compare: need two untraced results of one workload (got %s trace=%v, %s trace=%v)\n",
			base.Workload, base.Trace, cand.Workload, cand.Trace)
		return 2
	}
	gated := base.Fingerprint.sameHost(cand.Fingerprint)
	if !gated {
		fmt.Printf("fingerprints differ, reported but not gated:\n  base      %+v\n  candidate %+v\n", base.Fingerprint, cand.Fingerprint)
	}
	code := 0
	for _, m := range endToEnd {
		b, c := base.Metrics[m.name], cand.Metrics[m.name]
		change := ratio(c-b, b)
		worse := change
		if m.better == "higher" {
			worse = -change
		}
		verdict := "ok"
		if worse > m.bound {
			verdict = "REGRESSION"
			if !gated {
				verdict = "worse (not gated)"
			} else {
				code = 1
			}
		}
		fmt.Printf("%-18s %14.6g -> %14.6g %s  %+7.2f%%  bound %.0f%%  %s\n",
			m.name, b, c, m.unit, 100*change, 100*m.bound, verdict)
	}
	return code
}
