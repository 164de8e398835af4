package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the program modules a CPU sample can be attributed to.
// Samples with no program frame go to "runtime" (GC and scheduler work
// on its own goroutines); samples taken in the benchmark's own code
// between timed steps go to "bench".
var cpuModules = []string{
	"autoscaler", "capacity", "cluster", "config", "engine", "health",
	"jobservice", "jobstore", "metrics", "rootcause", "scribe", "shardmanager",
	"simclock", "statesyncer", "taskmanager", "taskservice", "tupperware",
	"wire", "workload", "runtime", "bench",
}

const internalPrefix = "repro/internal/"

// attribute names the module a sample's stack (innermost frame first)
// belongs to: the innermost repro/internal/<module> frame, unless the
// sample was taken in the benchmark outside the simulation loop.
func attribute(stack []string) string {
	inSim, inBench := false, false
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix+"simclock.(*Sim).Run") {
			inSim = true
		}
		if strings.HasPrefix(fn, "main.") {
			inBench = true
		}
	}
	if inBench && !inSim {
		return "bench"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "runtime"
}

// reduceCPUProfile decodes a gzipped pprof CPU profile and returns the CPU
// seconds attributed to each module. Only the fields it needs are read:
// samples (location ids and values), locations (line → function), functions
// (name) and the string table.
func reduceCPUProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					s.locs = append(s.locs, v)
				case num == 1 && wire == 2:
					return eachVarint(b, func(x uint64) { s.locs = append(s.locs, x) })
				case num == 2 && wire == 0:
					s.vals = append(s.vals, int64(v))
				case num == 2 && wire == 2:
					return eachVarint(b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 0
	}
	var stack []string
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		m := attribute(stack)
		if _, ok := out[m]; !ok {
			m = "runtime"
		}
		out[m] += float64(s.vals[1]) / 1e9 // value 1 is CPU nanoseconds
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func eachField(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func eachVarint(buf []byte, fn func(uint64)) error {
	for len(buf) > 0 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		buf = buf[n:]
	}
	return nil
}
