package fnv1a

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

var inputs = []string{"", "a", "j00042", "billing/agg-7", "tsk-\x00\xff-🙂", "a longer job name that spans several words"}

func TestStringMatchesStdlib(t *testing.T) {
	for _, s := range inputs {
		h32 := fnv.New32a()
		h32.Write([]byte(s))
		if got, want := String32(s), h32.Sum32(); got != want {
			t.Errorf("String32(%q) = %#x, want %#x", s, got, want)
		}
		h64 := fnv.New64a()
		h64.Write([]byte(s))
		if got, want := String64(s), h64.Sum64(); got != want {
			t.Errorf("String64(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestSaltedMatchesStdlib covers the jitter key: a string followed by a
// little-endian uint64 salt.
func TestSaltedMatchesStdlib(t *testing.T) {
	for _, s := range inputs {
		for _, salt := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
			ref := fnv.New64a()
			ref.Write([]byte(s))
			ref.Write(binary.LittleEndian.AppendUint64(nil, salt))
			if got, want := uint64(New64().AddString(s).AddUint64(salt)), ref.Sum64(); got != want {
				t.Errorf("salted(%q, %d) = %#x, want %#x", s, salt, got, want)
			}
		}
	}
}

// TestFaultDrawMatchesStdlib pins the fault injector's exact byte
// sequence — seed, op, NUL, key, NUL, call, rule — because it decides
// every chaos fault schedule.
func TestFaultDrawMatchesStdlib(t *testing.T) {
	seed, op, key, call, rule := uint64(4), "syncer.execute", "job-17", uint64(12), uint64(2)
	ref := fnv.New64a()
	ref.Write(binary.LittleEndian.AppendUint64(nil, seed))
	ref.Write([]byte(op))
	ref.Write([]byte{0})
	ref.Write([]byte(key))
	ref.Write([]byte{0})
	ref.Write(binary.LittleEndian.AppendUint64(nil, call))
	ref.Write(binary.LittleEndian.AppendUint64(nil, rule))
	got := New64().AddUint64(seed).AddString(op).AddByte(0).AddString(key).AddByte(0).AddUint64(call).AddUint64(rule)
	if uint64(got) != ref.Sum64() {
		t.Fatalf("fault draw = %#x, want %#x", uint64(got), ref.Sum64())
	}
}
