// Package fnv1a is the repository's one FNV-1a hash: the function that
// places job names on Job Store stripes (and so on State Syncer shard
// slices), series on metric stripes, containers on liveness stripes, and
// that seeds every deterministic jitter and fault-injection draw. Each of
// those is a persisted or replayed decision, so the values must never
// change; unlike hash/fnv it allocates nothing.
package fnv1a

const (
	offset32 = 2166136261
	prime32  = 16777619
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// String32 returns the 32-bit FNV-1a hash of s.
func String32(s string) uint32 {
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// String64 returns the 64-bit FNV-1a hash of s.
func String64(s string) uint64 {
	return uint64(New64().AddString(s))
}

// Hash64 is a running 64-bit FNV-1a state; the value is the hash of
// everything added so far.
type Hash64 uint64

// New64 returns the empty-input 64-bit state.
func New64() Hash64 { return offset64 }

// AddString hashes in the bytes of s.
func (h Hash64) AddString(s string) Hash64 {
	for i := 0; i < len(s); i++ {
		h = h.AddByte(s[i])
	}
	return h
}

// AddByte hashes in one byte.
func (h Hash64) AddByte(b byte) Hash64 {
	return (h ^ Hash64(b)) * prime64
}

// AddUint64 hashes in the eight little-endian bytes of v.
func (h Hash64) AddUint64(v uint64) Hash64 {
	for i := 0; i < 8; i++ {
		h = h.AddByte(byte(v >> (8 * i)))
	}
	return h
}
