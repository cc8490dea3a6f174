package serve

import (
	"container/list"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"sortinghat/ftype"
	"sortinghat/internal/data"
)

// cacheKey is the 128-bit content hash of one raw column (columnKey).
type cacheKey [16]byte

// colHash is the column hash's 128-bit state. It absorbs a sequence of
// 64-bit words two at a time; each absorb is a bijection of the state for
// fixed words, so two inputs whose states have diverged stay apart while
// they absorb the same suffix. The state lives on the caller's stack and
// hashes strings in place, without copying them to []byte.
//
// The constants are fixed, never seeded, so every process on every
// architecture computes the same key: the gateway routes on it and each
// replica keys its cache on it (ARCHITECTURE.md, "Column hash"). It is
// not a cryptographic hash.
type colHash struct{ hi, lo uint64 }

const (
	// colHashInitHi/Lo are the starting state: the first 128 bits of
	// pi's fraction.
	colHashInitHi = 0x243f6a8885a308d3
	colHashInitLo = 0x13198a2e03707344
	// colHashMulHi/Lo are the odd 128-bit multiplier of PCG64's LCG.
	colHashMulHi = 0x2360ed051fc65da4
	colHashMulLo = 0x4385df649fccf645
)

func newColHash() colHash { return colHash{hi: colHashInitHi, lo: colHashInitLo} }

// absorb xors two words into the state, folds the high half into the low
// half (rotated so the high half's best-mixed top bits land at the bottom
// of the low half, where the multiply spreads them furthest), and
// multiplies the state by colHashMul mod 2^128. Each of the three steps
// is a bijection of the state.
func (h colHash) absorb(w0, w1 uint64) colHash {
	hi := h.hi ^ w1
	lo := h.lo ^ w0 ^ bits.RotateLeft64(hi, 32)
	phi, plo := bits.Mul64(lo, colHashMulLo)
	return colHash{hi: phi + lo*colHashMulHi + hi*colHashMulLo, lo: plo}
}

// writeString absorbs one string as the word sequence [n, d0, d1, ...]:
// its length n, then its bytes as little-endian words, paired in order
// and padded with a zero word to an even count. A string of up to 8 bytes
// is one packed word; a longer one is ceil(n/8) 8-byte words whose last
// word is the string's last 8 bytes, overlapping the word before it when
// n is not a multiple of 8. Given n the words determine every byte, so
// distinct strings, and distinct sequences of strings, reach absorb as
// distinct word sequences: "ab"+"c" and "a"+"bc" differ by construction.
func (h colHash) writeString(s string) colHash {
	n := len(s)
	if n <= 8 {
		return h.absorb(uint64(n), packShort(s))
	}
	h = h.absorb(uint64(n), load64(s, 0))
	i := 8
	for ; n-i > 16; i += 16 {
		h = h.absorb(load64(s, i), load64(s, i+8))
	}
	if n-i > 8 {
		return h.absorb(load64(s, i), load64(s, n-8))
	}
	return h.absorb(load64(s, n-8), 0)
}

// packShort packs a string of at most 8 bytes into one word that, given
// the length, determines every byte: two overlapping 4-byte loads from
// 4 bytes up, the first, middle and last byte below that.
func packShort(s string) uint64 {
	n := len(s)
	switch {
	case n >= 4:
		return uint64(load32(s, 0)) | uint64(load32(s, n-4))<<32
	case n > 0:
		return uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1])
	default:
		return 0
	}
}

// load64 and load32 read little-endian words out of s at byte offset i,
// composed from single bytes so every architecture reads the same value;
// the compiler merges each into one load.
func load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func load32(s string, i int) uint32 {
	s = s[i : i+4]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// sum finishes the state with a two-step Feistel over fmix64, a bijection
// in which every output bit depends on every state bit, and returns the
// high word then the low word, big-endian. The first 8 bytes are the
// gateway's ring key.
func (h colHash) sum() cacheKey {
	lo := h.lo ^ fmix64(h.hi)
	hi := h.hi ^ fmix64(lo)
	var k cacheKey
	binary.BigEndian.PutUint64(k[:8], hi)
	binary.BigEndian.PutUint64(k[8:], lo)
	return k
}

// fmix64 is MurmurHash3's 64-bit finalizer, a bijective avalanche.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// columnKey hashes a column's attribute name and cell values. Every string
// is length-framed so concatenations cannot collide ("ab"+"c" vs
// "a"+"bc"), and the name is hashed first so renamed copies of the same
// values key differently (the attribute name feeds the model's bigram
// features, so it must be part of the identity).
//
//shvet:hotpath every column is hashed twice per fleet request: the gateway routes on it and the replica keys its cache on it
func columnKey(col *data.Column) cacheKey {
	h := newColHash().writeString(col.Name)
	for _, v := range col.Values {
		h = h.writeString(v)
	}
	return h.sum()
}

// ColumnHash returns the 128-bit content hash of a column: the same hash
// the prediction cache keys on, minus the model-version component. The
// gateway tier (internal/gateway) routes columns across replicas by this
// hash, so gateway shard ownership and replica cache identity agree by
// construction — a column always lands on the replica whose LRU already
// holds it.
func ColumnHash(col *data.Column) [16]byte { return columnKey(col) }

// versionedKey is the full prediction-cache key: the column's content
// hash plus the model swap sequence number it was predicted under. A hot
// reload (Server.Reload) bumps the sequence, so entries predicted by the
// previous model can never answer a lookup again — including entries
// inserted by in-flight workers that loaded the old model before the
// swap (they insert under the old sequence, which no new lookup uses).
type versionedKey struct {
	seq uint64
	key cacheKey
}

// cachedPrediction is the immutable value stored per column hash. Probs is
// shared between the cache and every response built from it and must never
// be mutated after insertion.
type cachedPrediction struct {
	Type  ftype.FeatureType
	Probs []float64
}

// predCache is a mutex-guarded LRU over column content hashes. A nil
// *predCache is a valid always-miss cache, which is how caching is
// disabled.
type predCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	byID      map[versionedKey]*list.Element
	evictions atomic.Int64 // lifetime LRU evictions (previously silent)
}

// lruEntry is the list payload: the key doubles back so eviction can
// delete from the map.
type lruEntry struct {
	key versionedKey
	val cachedPrediction
}

// newPredCache returns an LRU holding up to capacity entries, or nil
// (caching disabled) when capacity is not positive.
func newPredCache(capacity int) *predCache {
	if capacity <= 0 {
		return nil
	}
	return &predCache{cap: capacity, ll: list.New(), byID: make(map[versionedKey]*list.Element, capacity)}
}

// get returns the cached prediction for k, promoting it to most recently
// used on a hit.
func (c *predCache) get(k versionedKey) (cachedPrediction, bool) {
	if c == nil {
		return cachedPrediction{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[k]
	if !ok {
		return cachedPrediction{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts (or refreshes) k, evicting the least recently used entry
// when the cache is full.
func (c *predCache) put(k versionedKey, v cachedPrediction) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.byID, oldest.Value.(*lruEntry).key)
			c.evictions.Add(1)
		}
	}
	c.byID[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
}

// len reports the number of cached entries.
func (c *predCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evicted reports the lifetime eviction count.
func (c *predCache) evicted() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// capacity reports the configured capacity (0 when caching is disabled).
func (c *predCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// purge drops every entry and reports how many were dropped. Reload
// calls it after a model swap: the swapped-out model's entries are
// already unreachable (the sequence in their key no longer matches), so
// purging only reclaims their memory early instead of waiting for LRU
// pressure. Purged entries do not count as evictions — eviction measures
// capacity pressure, not model turnover.
func (c *predCache) purge() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	clear(c.byID)
	return n
}
