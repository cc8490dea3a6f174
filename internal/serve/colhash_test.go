package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
	"testing"

	"sortinghat/internal/data"
	"sortinghat/internal/synth"
)

// refWords is the plain formulation of writeString's framing: the string's
// length, then its bytes as little-endian words (one packed word up to 8
// bytes; otherwise 8-byte words with the last one overlapping to end at
// the string's end), padded with a zero word to an even count.
func refWords(s string) []uint64 {
	b := []byte(s)
	n := len(b)
	w := []uint64{uint64(n)}
	if n <= 8 {
		var d uint64
		switch {
		case n >= 4:
			d = uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32
		case n > 0:
			d = uint64(b[0])<<16 | uint64(b[n/2])<<8 | uint64(b[n-1])
		}
		return append(w, d)
	}
	for i := 0; i < n; i += 8 {
		w = append(w, binary.LittleEndian.Uint64(b[min(i, n-8):]))
	}
	if len(w)%2 == 1 {
		w = append(w, 0)
	}
	return w
}

// refColumnKey is columnKey written with math/big for the 128-bit state:
// absorb the name's words, then each value's, two at a time, and finish.
func refColumnKey(col *data.Column) cacheKey {
	mask64 := new(big.Int).SetUint64(^uint64(0))
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	mul := new(big.Int).Lsh(new(big.Int).SetUint64(colHashMulHi), 64)
	mul.Or(mul, new(big.Int).SetUint64(colHashMulLo))
	hi, lo := uint64(colHashInitHi), uint64(colHashInitLo)
	words := refWords(col.Name)
	for _, v := range col.Values {
		words = append(words, refWords(v)...)
	}
	for i := 0; i < len(words); i += 2 {
		hi ^= words[i+1]
		lo ^= words[i] ^ (hi<<32 | hi>>32)
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		x.Or(x, new(big.Int).SetUint64(lo))
		x.Mul(x, mul).Mod(x, mod)
		lo = new(big.Int).And(x, mask64).Uint64()
		hi = x.Rsh(x, 64).Uint64()
	}
	fmix := func(x uint64) uint64 {
		x = (x ^ x>>33) * 0xff51afd7ed558ccd
		x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
		return x ^ x>>33
	}
	lo ^= fmix(hi)
	hi ^= fmix(lo)
	var k cacheKey
	binary.BigEndian.PutUint64(k[:8], hi)
	binary.BigEndian.PutUint64(k[8:], lo)
	return k
}

// patterned returns n bytes that differ from any shifted copy of
// themselves, so a misplaced load shows up as a different key.
func patterned(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*37 + 11)
	}
	return string(b)
}

// TestColumnKeyMatchesReference checks the fast loads and the unrolled
// 128-bit multiply against refColumnKey for every string length from 0 to
// 80 and a few long ones, as the name and as a value.
func TestColumnKeyMatchesReference(t *testing.T) {
	for n := 0; n <= 300; n++ {
		if n > 80 && n%37 != 0 && n != 300 {
			continue
		}
		s := patterned(n)
		for _, col := range []data.Column{
			{Name: s},
			{Name: "c", Values: []string{s}},
			{Name: s, Values: []string{"", s, "x"}},
		} {
			if got, want := columnKey(&col), refColumnKey(&col); got != want {
				t.Fatalf("len %d: columnKey(%q, %d values) = %x, reference %x", n, col.Name, len(col.Values), got, want)
			}
		}
	}
}

// TestColumnKeyPinned pins the column hash to fixed vectors. Every
// gateway routes on this hash and every replica keys its cache on it, so
// any drift silently reshuffles ownership and cold-starts every cache on
// upgrade; change these vectors only on purpose and say so in CHANGES.md.
func TestColumnKeyPinned(t *testing.T) {
	cases := []struct {
		col  data.Column
		want string
	}{
		{data.Column{Name: ""}, "3143c4a347fa999cdf2befc1442b9de6"},
		{data.Column{Name: "", Values: []string{""}}, "82286f5049e7d8d6d458dba6b760df0a"},
		{data.Column{Name: "age", Values: []string{"ab", "c"}}, "45839e2c7cc83cdba522e2c71eea2de9"},
		{data.Column{Name: "age", Values: []string{"a", "bc"}}, "bfc986b6f2a1dd971c2f95d730ee6fd2"},
		{data.Column{Name: "zip", Values: []string{"", "02139", "Ärzte", "a\x00b"}}, "5aba71744c8db1bd9f7efed78319f4e2"},
		{data.Column{Name: "\x00", Values: []string{"\x00\x00", "日本語", "naïve café"}}, "bbc917cdfe43fdb1a58f274d517e8c88"},
		{data.Column{Name: "long", Values: []string{strings.Repeat("x", 300)}}, "63379ab682121049a2180fd798041e07"},
	}
	// One value of every length 0–17 and 300, which between them take
	// every branch of writeString and packShort.
	byLen := []struct {
		n    int
		want string
	}{
		{0, "37de845282f2a6e42b1466fa0c5c7004"},
		{1, "f6fd62945905b8c415815f6591749d1d"},
		{2, "22a33816682b41a4b75b0e602d2753a9"},
		{3, "b11c77b9af222d84f86d4e7b91d4bff5"},
		{4, "10cac564021838af0ea931cfbd703904"},
		{5, "4d0739cd60be673197ad427468746ce0"},
		{6, "f1320ea1ba0b3bd622f3e1997532e5f7"},
		{7, "3dc15080c0b3f5dc255db9ea5d046bb3"},
		{8, "62c7c2d7be0dc090cae53b166b38954d"},
		{9, "bd693d5a0a7b7e7c010dceb58ef38963"},
		{10, "d580de65818eae2793bb51d75e0af43b"},
		{11, "67e0d5c556e8fdd38cf45eabe3cab64c"},
		{12, "043de2443af52b6abddb04a3091ca0bc"},
		{13, "e2250e101e53bb1a3cacc4828b5c59f2"},
		{14, "17a6ee1961d4d374e8dd8fa0ade3c05c"},
		{15, "2a3d09bd83cb8244a02019880e8091ed"},
		{16, "cca782093304ed49c394afe12bc35982"},
		{17, "c8c8df9c88df61a9120a718761983b16"},
		{300, "414fbd41bad1ca8c50bc6603841602d4"},
	}
	check := func(col data.Column, want string) {
		k := columnKey(&col)
		if got := hex.EncodeToString(k[:]); got != want {
			t.Errorf("columnKey(%q, %q) = %s, pinned %s", col.Name, col.Values, got, want)
		}
	}
	for _, c := range cases {
		check(c.col, c.want)
	}
	for _, c := range byLen {
		check(data.Column{Name: "len", Values: []string{patterned(c.n)}}, c.want)
	}
}

// FuzzColumnKey checks columnKey against refColumnKey on arbitrary
// columns (values are vals split at 0xff bytes; shape bit 0 makes the
// value list nil), and that moving a byte across a string boundary, or
// swapping the bytes on either side of it, changes the key.
func FuzzColumnKey(f *testing.F) {
	f.Add("", "", byte(1))
	f.Add("age", "ab\xffc", byte(0))
	f.Add("zip", "\xff02139\xff\xc3\x84rzte\xffa\x00b", byte(0))
	f.Add("0123456789abcdef", "0123456789abcdefg\xff01234567\xff012345678", byte(0))
	f.Fuzz(func(t *testing.T, name, vals string, shape byte) {
		col := data.Column{Name: name, Values: strings.Split(vals, "\xff")}
		if shape&1 != 0 {
			col.Values = nil
		}
		key := columnKey(&col)
		if want := refColumnKey(&col); key != want {
			t.Fatalf("columnKey = %x, reference %x", key, want)
		}
		strs := append([]string{col.Name}, col.Values...)
		for i := 0; i+1 < len(strs) && i < 8; i++ {
			a, b := strs[i], strs[i+1]
			if a == "" {
				continue
			}
			moved := slices.Clone(strs)
			moved[i], moved[i+1] = a[:len(a)-1], a[len(a)-1:]+b
			if columnKey(asColumn(moved)) == key {
				t.Fatalf("moving a byte from string %d to %d keeps the key", i, i+1)
			}
			if b == "" || a[len(a)-1] == b[0] {
				continue
			}
			swapped := slices.Clone(strs)
			swapped[i], swapped[i+1] = a[:len(a)-1]+b[:1], a[len(a)-1:]+b[1:]
			if columnKey(asColumn(swapped)) == key {
				t.Fatalf("swapping the bytes across boundary %d keeps the key", i)
			}
		}
	})
}

// asColumn turns [name, values...] back into a column.
func asColumn(strs []string) *data.Column {
	return &data.Column{Name: strs[0], Values: strs[1:]}
}

// perturbBases is the base set of perturbedColumns: a small synth corpus
// cut to at most 24 values, as [name, values...], without duplicates.
var perturbBases = sync.OnceValue(func() [][]string {
	cfg := synth.DefaultCorpusConfig()
	cfg.N, cfg.MinRows, cfg.MaxRows = 4000, 4, 24
	seen := make(map[string]bool)
	var bases [][]string
	for _, lc := range synth.GenerateCorpus(cfg) {
		strs := append([]string{lc.Column.Name}, lc.Column.Values...)
		id := fmt.Sprintf("%q", strs)
		if !seen[id] {
			seen[id] = true
			bases = append(bases, strs)
		}
	}
	return bases
})

// perturbedColumns calls fn with the first n perturbed columns: each base
// column, then every single bit flip (bits 0, 1, 5 and 7) of every byte
// of its name and values, then the base with one byte moved across each
// string boundary. Columns from one base are distinct; columns from
// different bases may coincide. fn must not keep col or its values.
func perturbedColumns(n int, fn func(id int, col *data.Column)) {
	id := 0
	for _, base := range perturbBases() {
		strs := slices.Clone(base)
		emit := func() bool {
			if id == n {
				return false
			}
			fn(id, asColumn(strs))
			id++
			return true
		}
		if !emit() {
			return
		}
		for i, s := range strs {
			buf := []byte(s)
			for p := range buf {
				for _, bit := range []byte{0x01, 0x02, 0x20, 0x80} {
					buf[p] ^= bit
					strs[i] = string(buf)
					buf[p] ^= bit
					if !emit() {
						return
					}
				}
			}
			strs[i] = s
		}
		for i := 0; i+1 < len(strs); i++ {
			a, b := strs[i], strs[i+1]
			if a == "" {
				continue
			}
			strs[i], strs[i+1] = a[:len(a)-1], a[len(a)-1:]+b
			ok := emit()
			strs[i], strs[i+1] = a, b
			if !ok {
				return
			}
		}
	}
	if id < n {
		panic("perturbedColumns: corpus too small")
	}
}

// hashCorpusSize is the number of perturbed columns the collision and
// uniformity tests hash: ≥1M normally, fewer under the race detector,
// which slows the hash about tenfold.
func hashCorpusSize() int {
	if raceEnabled {
		return 1 << 16
	}
	return 1 << 20
}

type idKey struct {
	key cacheKey
	id  int32
}

// perturbedKeys hashes hashCorpusSize perturbed columns.
func perturbedKeys() []idKey {
	keys := make([]idKey, 0, hashCorpusSize())
	perturbedColumns(hashCorpusSize(), func(id int, col *data.Column) {
		keys = append(keys, idKey{columnKey(col), int32(id)})
	})
	return keys
}

// TestColumnKeyNoCollisions hashes over a million perturbed synth columns
// and requires every 128-bit key, and every 64-bit ring-key prefix, to be
// distinct across distinct columns.
func TestColumnKeyNoCollisions(t *testing.T) {
	keys := perturbedKeys()
	slices.SortFunc(keys, func(a, b idKey) int { return bytes.Compare(a.key[:], b.key[:]) })
	var pairs [][2]idKey
	for i := 1; i < len(keys); i++ {
		if bytes.Equal(keys[i-1].key[:8], keys[i].key[:8]) {
			pairs = append(pairs, [2]idKey{keys[i-1], keys[i]})
		}
	}
	// A sound hash expects about 2^-25 prefix matches over 2^20 keys; a
	// broken one gives thousands, and the bound keeps the regeneration
	// below cheap.
	if len(pairs) > 100 {
		t.Fatalf("%d pairs of columns share a 64-bit ring key", len(pairs))
	}
	ids := make(map[int]bool)
	for _, p := range pairs {
		ids[int(p[0].id)], ids[int(p[1].id)] = true, true
	}
	cols := materialize(ids)
	dups := 0
	for _, p := range pairs {
		ca, cb := cols[int(p[0].id)], cols[int(p[1].id)]
		if ca.Name == cb.Name && slices.Equal(ca.Values, cb.Values) {
			dups++ // the same column, reached from two bases
			continue
		}
		if p[0].key == p[1].key {
			t.Errorf("128-bit collision: %q %q and %q %q", ca.Name, ca.Values, cb.Name, cb.Values)
		} else {
			t.Errorf("64-bit ring-key collision: %q %q and %q %q", ca.Name, ca.Values, cb.Name, cb.Values)
		}
	}
	t.Logf("%d perturbed columns (%d reached twice), no collision", len(keys), dups)
}

// materialize regenerates the perturbed columns whose ids are in ids.
func materialize(ids map[int]bool) map[int]data.Column {
	out := make(map[int]data.Column, len(ids))
	perturbedColumns(hashCorpusSize(), func(id int, col *data.Column) {
		if ids[id] {
			out[id] = data.Column{Name: col.Name, Values: slices.Clone(col.Values)}
		}
	})
	return out
}

// TestRingKeyTopByteUniform runs a chi-square test on the ring key's top
// byte over the perturbed columns: 255 degrees of freedom, failing above
// the 0.1% critical value 330.5. The inputs are fixed, so the statistic
// is too; a pass cannot flake.
func TestRingKeyTopByteUniform(t *testing.T) {
	keys := perturbedKeys()
	var counts [256]int
	for _, k := range keys {
		counts[k.key[0]]++
	}
	expected := float64(len(keys)) / 256
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	t.Logf("chi-square %.1f over %d keys (255 df)", chi2, len(keys))
	if chi2 > 330.5 {
		t.Errorf("ring-key top byte is not uniform: chi-square %.1f > 330.5 (255 df, p < 0.001)", chi2)
	}
}

// raceEnabled reports whether the race detector is on (race_test.go sets
// it).
var raceEnabled bool
