// Command benchdiff compares two benchmark snapshots written by
// scripts/bench.sh (BENCH_*.json).
//
//	go run ./scripts/benchdiff OLD.json NEW.json
//
// For every op present in both files it prints the new/old ratio of
// ns/op, B/op and allocs/op. An ns/op ratio outside [1/2, 2] is flagged:
// sub-µs ops move 2–4× between runs on shared hosts, so only moves beyond
// that band are worth a second look, and none of them fails the diff.
// Allocation counts are nearly exact (whole-cluster benches vary by about
// 0.01% run to run), so benchdiff exits 1 when any op's allocs/op rises by
// more than 0.5%. It exits 2 on unreadable input.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

const (
	// nsNoise is the ns/op ratio beyond which a move is flagged.
	nsNoise = 2.0
	// allocSlack is the allocs/op rise tolerated before the diff fails.
	allocSlack = 0.005
)

// record is one op of a snapshot. Snapshots before BENCH_PR13.json carry
// no bytes_per_op; a missing or null figure decodes as nil.
type record struct {
	Op          string   `json:"op"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	old, err := load(os.Args[1])
	if err != nil {
		fatal(err)
	}
	cur, err := load(os.Args[2])
	if err != nil {
		fatal(err)
	}
	if diff(os.Stdout, old, cur) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func load(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.Op] {
			return nil, fmt.Errorf("%s: op %s appears twice", path, r.Op)
		}
		seen[r.Op] = true
	}
	return recs, nil
}

// diff writes the comparison table for the ops in both snapshots, in the
// new snapshot's order, and reports whether any op's allocs/op rose by
// more than allocSlack.
func diff(w io.Writer, old, cur []record) (failed bool) {
	byOp := make(map[string]record, len(old))
	for _, r := range old {
		byOp[r.Op] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tns/op\tB/op\tallocs/op\t")
	for _, n := range cur {
		o, ok := byOp[n.Op]
		if !ok {
			continue
		}
		var notes string
		if r := n.NsPerOp / o.NsPerOp; r > nsNoise || r < 1/nsNoise {
			notes += "  ns beyond noise band"
		}
		if o.AllocsPerOp != nil && n.AllocsPerOp != nil && *n.AllocsPerOp > *o.AllocsPerOp*(1+allocSlack) {
			notes += "  ALLOCS UP"
			failed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", n.Op,
			ratio(&o.NsPerOp, &n.NsPerOp), ratio(o.BytesPerOp, n.BytesPerOp),
			ratio(o.AllocsPerOp, n.AllocsPerOp), notes)
	}
	tw.Flush()
	return failed
}

// ratio formats new/old, or "-" when either figure is missing.
func ratio(old, cur *float64) string {
	switch {
	case old == nil || cur == nil:
		return "-"
	case *old == *cur:
		return "1.00x"
	case *old == 0:
		return fmt.Sprintf("%g→%g", *old, *cur)
	}
	return fmt.Sprintf("%.2fx", *cur / *old)
}
