package config

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// checkDecodeMatchesJSON asserts that JobConfigFromDoc gives the same
// config and the same error text as the JSON round trip, and returns the
// decoded config (nil on error).
func checkDecodeMatchesJSON(t *testing.T, d Doc) *JobConfig {
	t.Helper()
	got, gotErr := JobConfigFromDoc(d)
	want, wantErr := jobConfigFromJSON(d)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("error mismatch:\n  walk %q\n  json %q", errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("config mismatch:\n  walk %+v\n  json %+v", got, want)
	}
	return got
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fullConfig sets every field, so its doc carries every json tag.
func fullConfig() *JobConfig {
	c := validConfig()
	c.TaskResources.DiskBytes = 1 << 34
	c.TaskResources.NetworkBps = 1 << 27
	c.CheckpointDir = "/ckpt/tailer1"
	c.Priority = 3
	c.MaxTaskCount = 32
	c.Stopped = true
	return c
}

// mergedJobDoc is a job's merged expected config as the Job Store serves
// it: a JSON-shaped base layer, a package push and a Go-typed scaler
// override, folded by MergeLayersShared.
func mergedJobDoc(tb testing.TB) Doc {
	base, err := validConfig().ToDoc()
	if err != nil {
		tb.Fatal(err)
	}
	provisioner := Doc{}.SetPath("package.version", "v2")
	scaler := Doc{}.SetPath("taskCount", 8).SetPath("taskResources.memoryBytes", int64(2<<30))
	return MergeLayersShared(base, provisioner, scaler)
}

func TestJobConfigFromDocMatchesJSONForGoValues(t *testing.T) {
	deep := Doc{}
	for i := 0; i < 100; i++ {
		deep = Doc{"next": deep}
	}
	cyclic := Doc{"name": "j"}
	cyclic["self"] = cyclic
	cases := []struct {
		name string
		doc  Doc
	}{
		{"nil doc", nil},
		{"merged layers", mergedJobDoc(t)},
		{"every field", func() Doc { d, _ := fullConfig().ToDoc(); return d }()},
		// int and int64 as SetPath writes them (and wire decoding yields).
		{"int taskCount", Doc{}.SetPath("taskCount", 7)},
		{"negative int", Doc{}.SetPath("priority", -2)},
		{"int64 taskCount", Doc{}.SetPath("taskCount", int64(7))},
		{"max int64 taskCount", Doc{}.SetPath("taskCount", int64(math.MaxInt64))},
		{"min int64 partitions", Doc{}.SetPath("input.partitions", int64(math.MinInt64))},
		{"int64 memoryBytes", Doc{}.SetPath("taskResources.memoryBytes", int64(1)<<40)},
		{"int memoryBytes", Doc{}.SetPath("taskResources.diskBytes", 1<<40)},
		{"int sloSeconds", Doc{}.SetPath("sloSeconds", 90)},
		{"int64 cpuCores", Doc{}.SetPath("taskResources.cpuCores", int64(1)<<62+1)},
		{"max int64 cpuCores", Doc{}.SetPath("taskResources.cpuCores", int64(math.MaxInt64))},
		// Floats at and beyond the exact-integer range.
		{"half", Doc{}.SetPath("taskCount", 0.5)},
		{"negative zero int", Doc{}.SetPath("taskCount", math.Copysign(0, -1))},
		{"negative zero float", Doc{}.SetPath("sloSeconds", math.Copysign(0, -1))},
		{"2^53", Doc{}.SetPath("taskCount", float64(1<<53))},
		{"-2^53", Doc{}.SetPath("taskResources.networkBps", -float64(1<<53))},
		{"2^53+2", Doc{}.SetPath("taskCount", float64(1<<53+2))},
		{"1e21", Doc{}.SetPath("maxTaskCount", 1e21)},
		{"min int64 as float", Doc{}.SetPath("taskCount", -9.223372036854776e18)},
		{"big float memoryBytes", Doc{}.SetPath("taskResources.memoryBytes", 1e19)},
		{"NaN sloSeconds", Doc{}.SetPath("sloSeconds", math.NaN())},
		{"Inf cpuCores", Doc{}.SetPath("taskResources.cpuCores", math.Inf(1))},
		{"tiny float", Doc{}.SetPath("sloSeconds", 5e-324)},
		// Strings.
		{"invalid UTF-8 name", Doc{}.SetPath("name", "\xff")},
		{"invalid UTF-8 version", Doc{}.SetPath("package.version", "a\xffb")},
		{"surrogate operator", Doc{}.SetPath("operator", "\xed\xa0\x80")},
		{"escaped characters", Doc{}.SetPath("checkpointDir", "<a&b>\u2028\t\"")},
		{"invalid UTF-8 ignored value", Doc{"extra": "\xff", "name": "j"}},
		// Keys.
		{"cased key", Doc{"TaskCount": 3}},
		{"both cased keys", Doc{"taskCount": 3, "TaskCount": 4}},
		{"cased nested key", Doc{"package": Doc{"Name": "p", "version": "v"}}},
		{"cased object keys", Doc{"input": Doc{"category": "a"}, "Input": Doc{"partitions": 3}}},
		{"long s key", Doc{"ta\u017fkCount": 3}},
		{"kelvin key", Doc{"tas\u212aCount": 3}},
		{"dotted I key", Doc{"\u0130nput": Doc{"partitions": 3}}},
		{"invalid UTF-8 key", Doc{"\xff": 1, "name": "j"}},
		{"unknown keys", Doc{"extra": []any{1, Doc{"a": nil}, true}, "package": Doc{"extra": 2.5}}},
		{"NaN under unknown key", Doc{"extra": math.NaN(), "name": "j"}},
		{"NaN under nested unknown key", Doc{"package": Doc{"extra": []any{math.Inf(-1)}}}},
		{"deep unknown value", Doc{"extra": deep}},
		{"cyclic unknown value", cyclic},
		// Nulls and nested shapes.
		{"nulls", Doc{"name": nil, "package": Doc{"name": nil}, "input": nil, "stopped": nil}},
		{"plain map nesting", Doc{"input": map[string]any{"category": "c", "partitions": 4}}},
		{"stopped", Doc{"stopped": true}},
		// Type mismatches and shapes the walker does not decode.
		{"string taskCount", Doc{"taskCount": "4"}},
		{"object name", Doc{"name": Doc{"first": "j"}}},
		{"string package", Doc{"package": "p"}},
		{"array taskCount", Doc{"taskCount": []any{1.0}}},
		{"string stopped", Doc{"stopped": "true"}},
		{"number stopped", Doc{"stopped": 1.0}},
		{"int32 taskCount", Doc{"taskCount": int32(5)}},
		{"uint taskCount", Doc{"taskCount": uint(5)}},
		{"float32 cpuCores", Doc{"taskResources": Doc{"cpuCores": float32(1.1)}}},
		{"json.Number taskCount", Doc{"taskCount": json.Number("5")}},
		{"bool cpuCores", Doc{"taskResources": Doc{"cpuCores": true}}},
		{"int32 ignored value", Doc{"extra": int32(1), "name": "j"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkDecodeMatchesJSON(t, tc.doc) })
	}
}

// TestJobConfigFromDocWalksCommonDocs pins the shapes the control plane
// produces to the walk, not the JSON fallback: a doc carrying every json
// tag (so every tag has its case in the walker), the merged layers, and a
// wire-decoded doc whose numbers are int64.
func TestJobConfigFromDocWalksCommonDocs(t *testing.T) {
	want := fullConfig()
	full, err := want.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	wire := Doc{
		"name": "j", "taskCount": int64(4), "threadsPerTask": int64(2),
		"taskResources": Doc{"cpuCores": 1.5, "memoryBytes": int64(1) << 30},
		"input":         Doc{"category": "c", "partitions": int64(16)},
	}
	for name, d := range map[string]Doc{"every field": full, "merged": mergedJobDoc(t), "wire": wire} {
		var c JobConfig
		if !decodeJobConfig(&c, d) {
			t.Fatalf("%s: walk fell back to JSON for %#v", name, d)
		}
	}
	got, err := JobConfigFromDoc(full)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("every field: got %+v, %v; want %+v", got, err, want)
	}
}

func TestJobConfigFromDocAllocatesOnlyTheConfig(t *testing.T) {
	d := mergedJobDoc(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := JobConfigFromDoc(d); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("JobConfigFromDoc on a merged doc: %v allocs, want 1", n)
	}
}

var benchConfig *JobConfig

func BenchmarkJobConfigFromDoc(b *testing.B) {
	d := mergedJobDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchConfig, err = JobConfigFromDoc(d); err != nil {
			b.Fatal(err)
		}
	}
}
