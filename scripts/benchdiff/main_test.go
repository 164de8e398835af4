package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(op string, ns float64, bytes, allocs *float64) record {
	return record{Op: op, NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
}

func f(x float64) *float64 { return &x }

func TestDiffFailsOnlyOnAllocRise(t *testing.T) {
	old := []record{
		rec("Same", 100, f(64), f(2)),
		rec("Whole", 1e9, f(1e8), f(2_020_141)),
		rec("Zero", 10, f(0), f(0)),
		rec("Gone", 10, f(0), f(0)),
	}
	cases := []struct {
		name string
		cur  []record
		fail bool
	}{
		{"identical", old, false},
		{"run-to-run noise", []record{rec("Whole", 1e9, f(1e8), f(2_030_000))}, false},
		{"fewer allocs", []record{rec("Same", 100, f(0), f(0))}, false},
		{"slower only", []record{rec("Same", 900, f(64), f(2))}, false},
		{"alloc rise", []record{rec("Whole", 1e9, f(1e8), f(2_031_000))}, true},
		{"first alloc", []record{rec("Zero", 10, f(8), f(1))}, true},
		{"new op", []record{rec("Fresh", 10, f(800), f(100))}, false},
		{"no allocs recorded", []record{rec("Same", 100, nil, nil)}, false},
	}
	for _, tc := range cases {
		var out strings.Builder
		if got := diff(&out, old, tc.cur); got != tc.fail {
			t.Errorf("%s: failed=%v, want %v\n%s", tc.name, got, tc.fail, out.String())
		}
	}
}

func TestDiffTable(t *testing.T) {
	old := []record{rec("A", 100, nil, f(4)), rec("B", 100, f(10), f(1)), rec("OnlyOld", 1, nil, nil)}
	cur := []record{rec("B", 350, f(5), f(1)), rec("A", 120, f(16), f(4)), rec("OnlyNew", 1, nil, nil)}
	var out strings.Builder
	diff(&out, old, cur)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and one row per shared op, got:\n%s", out.String())
	}
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "B 3.50x 0.50x 1.00x ns beyond noise band" {
		t.Errorf("row B = %q", lines[1])
	}
	if got := strings.Fields(lines[2]); strings.Join(got, " ") != "A 1.20x - 1.00x" {
		t.Errorf("row A = %q", lines[2])
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	recs, err := load(write("ok.json", `[
  {"op": "BenchmarkA", "ns_per_op": 12.5, "bytes_per_op": null, "allocs_per_op": 3},
  {"op": "BenchmarkB", "ns_per_op": 7, "allocs_per_op": 0}
]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].BytesPerOp != nil || *recs[0].AllocsPerOp != 3 || recs[1].NsPerOp != 7 {
		t.Fatalf("parsed %+v", recs)
	}
	if _, err := load(write("dup.json", `[{"op": "A", "ns_per_op": 1}, {"op": "A", "ns_per_op": 2}]`)); err == nil {
		t.Fatal("duplicate op accepted")
	}
	if _, err := load(write("bad.json", `{`)); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
}
