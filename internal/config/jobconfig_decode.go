package config

import (
	"math"
	"reflect"
	"strings"
	"unicode/utf8"
)

// The typed decoder behind JobConfigFromDoc. It fills a JobConfig by
// walking the Doc with type switches instead of marshalling the doc to
// JSON and unmarshalling it back, and it must produce exactly what that
// round trip produces. So it decodes only what it can reproduce exactly
// and reports anything else as undecodable, which hands the doc to the
// JSON path (jobConfigFromJSON) unchanged:
//
//   - Keys: a key equal to a json tag name is decoded. encoding/json also
//     matches keys case-insensitively (last key in sorted order wins), so
//     a key that folds onto a tag name, or any non-ASCII key, is left to
//     the JSON path. Any other key is ignored, as JSON ignores it, once
//     its value is known to marshal.
//   - nil is skipped: JSON null leaves a non-pointer field untouched.
//   - Nested objects may be a Doc or a map[string]any.
//   - Strings must be valid UTF-8: json.Marshal rewrites bad bytes.
//   - Int fields take int, int64, or an integral float64 with |x| ≤ 2⁵³.
//     A larger float marshals in shortest form (-9.223372036854776e18
//     becomes -9223372036854776000), which need not equal int64(x).
//   - Float fields take a finite float64, an int or an int64.
//   - Any other type, and any type mismatch, is undecodable.

// maxSafeInt is 2⁵³: every integral float64 up to it marshals as its
// exact decimal digits.
const maxSafeInt = 1 << 53

// maxIgnoredDepth bounds the walk through ignored values; deeper (or
// cyclic) values are left to the JSON path, which reports cycles.
const maxIgnoredDepth = 64

// The json tag names of each struct level, for the case-fold check on
// keys that are not an exact tag name.
var (
	jobConfigTags = jsonTags(reflect.TypeOf(JobConfig{}))
	packageTags   = jsonTags(reflect.TypeOf(Package{}))
	resourcesTags = jsonTags(reflect.TypeOf(Resources{}))
	inputTags     = jsonTags(reflect.TypeOf(Input{}))
	outputTags    = jsonTags(reflect.TypeOf(Output{}))
)

func jsonTags(t reflect.Type) []string {
	tags := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		tags = append(tags, name)
	}
	return tags
}

// decodeJobConfig fills c from d and reports whether it could do so
// exactly; on false, c is partially filled and must be discarded.
func decodeJobConfig(c *JobConfig, d map[string]any) bool {
	for k, v := range d {
		if v == nil {
			continue
		}
		var ok bool
		switch k {
		case "name":
			ok = decodeString(&c.Name, v)
		case "package":
			m, isObj := asDoc(v)
			ok = isObj && decodePackage(&c.Package, m)
		case "taskCount":
			ok = decodeInt(&c.TaskCount, v)
		case "threadsPerTask":
			ok = decodeInt(&c.ThreadsPerTask, v)
		case "taskResources":
			m, isObj := asDoc(v)
			ok = isObj && decodeResources(&c.TaskResources, m)
		case "operator":
			ok = decodeString((*string)(&c.Operator), v)
		case "input":
			m, isObj := asDoc(v)
			ok = isObj && decodeInput(&c.Input, m)
		case "output":
			m, isObj := asDoc(v)
			ok = isObj && decodeOutput(&c.Output, m)
		case "checkpointDir":
			ok = decodeString(&c.CheckpointDir, v)
		case "enforcement":
			ok = decodeString((*string)(&c.Enforcement), v)
		case "priority":
			ok = decodeInt(&c.Priority, v)
		case "maxTaskCount":
			ok = decodeInt(&c.MaxTaskCount, v)
		case "sloSeconds":
			ok = decodeFloat(&c.SLOSeconds, v)
		case "stopped":
			c.Stopped, ok = v.(bool)
		default:
			ok = ignorable(k, v, jobConfigTags)
		}
		if !ok {
			return false
		}
	}
	return true
}

func decodePackage(p *Package, m map[string]any) bool {
	for k, v := range m {
		if v == nil {
			continue
		}
		var ok bool
		switch k {
		case "name":
			ok = decodeString(&p.Name, v)
		case "version":
			ok = decodeString(&p.Version, v)
		default:
			ok = ignorable(k, v, packageTags)
		}
		if !ok {
			return false
		}
	}
	return true
}

func decodeResources(r *Resources, m map[string]any) bool {
	for k, v := range m {
		if v == nil {
			continue
		}
		var ok bool
		switch k {
		case "cpuCores":
			ok = decodeFloat(&r.CPUCores, v)
		case "memoryBytes":
			r.MemoryBytes, ok = intValue(v)
		case "diskBytes":
			r.DiskBytes, ok = intValue(v)
		case "networkBps":
			r.NetworkBps, ok = intValue(v)
		default:
			ok = ignorable(k, v, resourcesTags)
		}
		if !ok {
			return false
		}
	}
	return true
}

func decodeInput(in *Input, m map[string]any) bool {
	for k, v := range m {
		if v == nil {
			continue
		}
		var ok bool
		switch k {
		case "category":
			ok = decodeString(&in.Category, v)
		case "partitions":
			ok = decodeInt(&in.Partitions, v)
		default:
			ok = ignorable(k, v, inputTags)
		}
		if !ok {
			return false
		}
	}
	return true
}

func decodeOutput(out *Output, m map[string]any) bool {
	for k, v := range m {
		if v == nil {
			continue
		}
		var ok bool
		switch k {
		case "category":
			ok = decodeString(&out.Category, v)
		default:
			ok = ignorable(k, v, outputTags)
		}
		if !ok {
			return false
		}
	}
	return true
}

func decodeString(dst *string, v any) bool {
	s, ok := v.(string)
	if !ok || !utf8.ValidString(s) {
		return false
	}
	*dst = s
	return true
}

func decodeInt(dst *int, v any) bool {
	n, ok := intValue(v)
	if !ok || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// intValue is the int64 that json.Marshal followed by a decode into an
// integer field yields for v, if v is one of the shapes it accepts.
func intValue(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int64:
		return x, true
	case float64:
		if x == math.Trunc(x) && math.Abs(x) <= maxSafeInt {
			return int64(x), true
		}
	}
	return 0, false
}

func decodeFloat(dst *float64, v any) bool {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
		*dst = x
	case int:
		*dst = float64(x)
	case int64:
		*dst = float64(x)
	default:
		return false
	}
	return true
}

// ignorable reports whether encoding/json would skip key k with value v
// when decoding into a struct with the given tag names: k must not fold
// onto a tag name (non-ASCII keys are not folded here, only refused), and
// v must marshal without error.
func ignorable(k string, v any, tags []string) bool {
	for i := 0; i < len(k); i++ {
		if k[i] >= utf8.RuneSelf {
			return false
		}
	}
	for _, tag := range tags {
		if strings.EqualFold(k, tag) {
			return false
		}
	}
	return marshalable(v, 0)
}

// marshalable reports whether json.Marshal accepts v, for the value
// shapes a Doc holds.
func marshalable(v any, depth int) bool {
	if depth > maxIgnoredDepth {
		return false
	}
	switch x := v.(type) {
	case nil, bool, string, int, int64:
		return true
	case float64:
		return !math.IsNaN(x) && !math.IsInf(x, 0)
	case Doc:
		return marshalableMap(x, depth)
	case map[string]any:
		return marshalableMap(x, depth)
	case []any:
		for _, e := range x {
			if !marshalable(e, depth+1) {
				return false
			}
		}
		return true
	}
	return false
}

func marshalableMap(m map[string]any, depth int) bool {
	for _, e := range m {
		if !marshalable(e, depth+1) {
			return false
		}
	}
	return true
}
