package config

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzMerge feeds arbitrary JSON documents through Algorithm 1 and checks
// the structural invariants that the State Syncer depends on: the merge
// never panics, is idempotent, and top-level scalar keys of the top layer
// always win.
func FuzzMerge(f *testing.F) {
	f.Add(`{"taskCount":10}`, `{"taskCount":15}`)
	f.Add(`{"pkg":{"name":"t","v":1}}`, `{"pkg":{"v":2}}`)
	f.Add(`{"a":[1,2,3]}`, `{"a":{"b":1}}`)
	f.Add(`{}`, `{}`)
	f.Add(`{"x":null}`, `{"x":{"y":"z"}}`)
	f.Fuzz(func(t *testing.T, bottomJSON, topJSON string) {
		var bottom, top Doc
		if json.Unmarshal([]byte(bottomJSON), &bottom) != nil ||
			json.Unmarshal([]byte(topJSON), &top) != nil {
			t.Skip()
		}
		merged := Merge(bottom, top)
		if !Equal(Merge(merged, merged), merged) {
			t.Fatalf("merge not idempotent for %q + %q", bottomJSON, topJSON)
		}
		for k, tv := range top {
			if _, isMap := asDoc(tv); isMap {
				continue
			}
			if !leafEqual(merged[k], tv) {
				t.Fatalf("top scalar %q lost: %v vs %v", k, merged[k], tv)
			}
		}
		// Diff of a doc against itself is always empty.
		if d := Diff(merged, merged.Clone()); len(d) != 0 {
			t.Fatalf("self-diff nonempty: %v", d)
		}
	})
}

// FuzzJobConfigFromDoc checks the typed decoder against the JSON round
// trip it replaces: every document decodes to the same *JobConfig with the
// same error text. JSON-decoded documents hold only float64 numbers and
// valid UTF-8, so each one is also re-checked with a Go string, int, int64
// and float64 written through SetPath at the fuzzed path — the shapes the
// Job Service and wire decoding put in a doc.
func FuzzJobConfigFromDoc(f *testing.F) {
	for _, doc := range []string{
		`{"name":"j","taskCount":4}`,
		`{"taskCount":"not-a-number"}`,
		`{"taskResources":{"cpuCores":1.5}}`,
		`{"input":{"category":"c","partitions":8}}`,
		`{"TaskCount":3}`,
		`{"taskCount":3,"TaskCount":4}`,
		`{"input":{"category":"a"},"Input":{"partitions":3}}`,
		"{\"name\":\"\xff\"}",
		`{"package":{"name":null,"version":null},"input":null,"taskResources":{"cpuCores":null}}`,
		`{"taskCount":"4"}`,
		`{"name":{"first":"j"}}`,
		`{"taskCount":0.5}`,
		`{"taskCount":-0}`,
		`{"taskCount":9007199254740992}`,
		`{"taskCount":9007199254740994}`,
		`{"taskCount":1e21}`,
		`{"taskCount":-9.223372036854776e18}`,
		`{"extra":[1,{"a":null}],"package":{"extra":true}}`,
	} {
		f.Add(doc, "taskCount", "\xff", int64(1)<<62, -9.223372036854776e18)
	}
	f.Add(`{}`, "name", "a\xffb", int64(-1), 0.5)
	f.Add(`{"package":{"name":"p"}}`, "package.Name", "p2", int64(1)<<53+1, 1e21)
	f.Add(`{}`, "taskResources.cpuCores", "x", int64(math.MaxInt64), math.Copysign(0, -1))
	f.Add(`{}`, "taskResources.memoryBytes", "", int64(math.MinInt64), 9007199254740994.0)
	f.Fuzz(func(t *testing.T, docJSON, path, s string, n int64, x float64) {
		var d Doc
		if json.Unmarshal([]byte(docJSON), &d) != nil {
			t.Skip()
		}
		if cfg := checkDecodeMatchesJSON(t, d); cfg != nil {
			// Decoded configs re-encode without error.
			if _, err := cfg.ToDoc(); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			_ = cfg.Validate()
		}
		for _, v := range []any{s, int(n), n, x} {
			checkDecodeMatchesJSON(t, d.Clone().SetPath(path, v))
		}
	})
}

// FuzzSetGetPath checks path traversal never panics and set-then-get
// round-trips on fresh paths.
func FuzzSetGetPath(f *testing.F) {
	f.Add("a.b.c", 5)
	f.Add("taskCount", 10)
	f.Add("", 0)
	f.Add("...", 1)
	f.Fuzz(func(t *testing.T, path string, value int) {
		d := Doc{}
		d.SetPath(path, value)
		got, ok := d.GetPath(path)
		if !ok {
			t.Fatalf("SetPath(%q) then GetPath lost the value", path)
		}
		if got != value {
			t.Fatalf("round trip: got %v want %v", got, value)
		}
	})
}
