package serve

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"sortinghat/internal/data"
)

// This file is the wire codec of the infer request,
// {"columns":[{"name":…,"values":[…]}]}: one schema-specific decoder and
// encoder used by both tiers in place of encoding/json's reflection. The
// contract is exactly encoding/json's behaviour for InferRequest (see
// DecodeInferRequest); the differential fuzz targets in wire_test.go hold
// the two to it.

// ErrTooManyColumns reports a request holding more columns than the
// decoder was allowed to read.
var ErrTooManyColumns = errors.New("too many columns")

// maxWireDepth is encoding/json's nesting limit: a document nesting
// objects and arrays deeper than this is a syntax error.
const maxWireDepth = 10000

// bodyReserve caps what readBody allocates before any byte has arrived,
// so a Content-Length header cannot reserve more memory than the
// connection delivers.
const bodyReserve = 1 << 20

// unknownLengthReserve is readBody's first buffer when the request
// declares no Content-Length.
const unknownLengthReserve = 16 << 10

// readBody reads r's body, at most limit bytes; a longer body fails with
// an *http.MaxBytesError and closes the connection, as
// http.MaxBytesReader does. The buffer starts at the declared
// Content-Length, capped at 1 MiB, and doubles as bytes arrive, never
// past the declared length while it is still ahead: an honest body of up
// to 1 MiB is read into one exactly sized buffer, a larger one allocates
// less than twice its size in all, and a lying header costs at most
// 1 MiB up front.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	declared := r.ContentLength
	reserve := int64(unknownLengthReserve)
	if declared >= 0 {
		reserve = min(declared, bodyReserve)
	}
	// One spare byte lets a reader that reports io.EOF only on the call
	// after the last byte finish without growing the buffer.
	buf := make([]byte, 0, min(reserve, limit)+1)
	for {
		if len(buf) == cap(buf) {
			next := 2 * int64(cap(buf))
			if int64(len(buf)) < declared {
				next = min(next, declared+1)
			}
			grown := make([]byte, len(buf), min(next, limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ReadInferRequest reads r's body, at most limit bytes, and decodes it
// with DecodeInferRequest: the ingress of every JSON infer endpoint. A
// body past the limit fails with an *http.MaxBytesError. The read
// buffer starts at the declared Content-Length, capped at 1 MiB, so a
// lying header costs at most 1 MiB up front.
func ReadInferRequest(w http.ResponseWriter, r *http.Request, limit int64, maxColumns int) ([]data.Column, error) {
	body, err := readBody(w, r, limit)
	if err != nil {
		return nil, err
	}
	return DecodeInferRequest(body, maxColumns)
}

// DecodeInferRequest decodes an InferRequest body straight into columns,
// accepting and rejecting exactly what json.NewDecoder(…).Decode(&req)
// does and returning the same columns:
//
//   - Keys match their field exactly or folding case as encoding/json
//     does (so "VALUES" and "valueſ" are values); other keys have their
//     value syntax-checked and skipped, nested at most 10,000 deep.
//   - null sets columns or values to nil; as a name or a value element it
//     leaves what is there unchanged.
//   - A repeated key decodes into the existing elements, as encoding/json
//     does: a shorter array truncates, and a longer one later re-exposes
//     the elements the truncation hid.
//   - Strings take every escape, surrogate pairs included; lone surrogates
//     and invalid UTF-8 bytes become U+FFFD; a raw control character is a
//     syntax error.
//   - A value of the wrong type is an error; bytes after the top-level
//     value are ignored.
//
// Every value string aliases one backing string per request, reserved at
// the size of the body (a body whose invalid UTF-8 outgrows the
// reservation starts a second one). Each name is its own allocation, so
// a name kept by a span, cache or flight record does not pin the body.
// Decoding stops after the first maxColumns+1 columns of an array,
// returning them with ErrTooManyColumns, so an oversized batch costs no
// more than the columns that prove it too large.
//
//shvet:hotpath request decode of every JSON infer call on both tiers
func DecodeInferRequest(body []byte, maxColumns int) ([]data.Column, error) {
	d := wireDecoder{b: body, maxColumns: maxColumns}
	d.space()
	if d.i == len(body) {
		return nil, errors.New("empty request body")
	}
	switch body[d.i] {
	case '{':
		return d.request()
	case 'n':
		// A top-level null leaves the request empty; whatever follows the
		// literal is past the value and ignored.
		return nil, d.literal("null")
	}
	return nil, d.mismatch("request", "a JSON object")
}

// wireDecoder is one DecodeInferRequest call's cursor and buffers. Every
// value decoder starts with the cursor on the value's first byte: key,
// open and next skip the whitespace before it.
type wireDecoder struct {
	b          []byte
	i          int // next unread byte of b
	depth      int // open objects and arrays, as encoding/json counts them
	maxColumns int
	arena      strings.Builder // decoded value bytes; values alias its String
	vals       []string        // the values array being decoded
}

// request decodes the top-level object. The columns it returns are the
// prefix of store, the columns array's backing elements, that the last
// "columns" key covered; store keeps the elements a shorter repeat hid.
func (d *wireDecoder) request() ([]data.Column, error) {
	empty, err := d.open('{', '}')
	if err != nil || empty {
		return nil, err
	}
	var store []data.Column
	n, null := 0, true
	for more := true; more; {
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		if !foldEqual(key, "columns") {
			err = d.skip()
		} else if null, err = d.null(); err == nil && null {
			store, n = nil, 0
		} else if err == nil {
			store, n, err = d.columns(store)
		}
		if err != nil {
			return store[:n], err
		}
		if more, err = d.next('}'); err != nil {
			return nil, err
		}
	}
	if null {
		return nil, nil
	}
	return store[:n], nil
}

// columns decodes a columns array into store as encoding/json decodes into
// a slice: element i lands in store[i], whatever an earlier array left
// there, and the result's first n elements are the array. An empty array
// starts over with no elements.
func (d *wireDecoder) columns(store []data.Column) ([]data.Column, int, error) {
	if d.b[d.i] != '[' {
		return store, 0, d.mismatch("columns", "an array")
	}
	empty, err := d.open('[', ']')
	if err != nil || empty {
		return []data.Column{}, 0, err
	}
	n := 0
	for more := true; more; {
		if n == len(store) {
			store = append(store, data.Column{})
		}
		if err := d.column(&store[n]); err != nil {
			return store, n, err
		}
		n++
		if n > d.maxColumns {
			return store, n, ErrTooManyColumns
		}
		if more, err = d.next(']'); err != nil {
			return store, n, err
		}
	}
	return store, n, nil
}

// column decodes one element of the columns array into col.
func (d *wireDecoder) column(col *data.Column) error {
	if null, err := d.null(); err != nil || null {
		return err // null leaves a struct element as it was
	}
	if d.b[d.i] != '{' {
		return d.mismatch("column", "an object")
	}
	empty, err := d.open('{', '}')
	if err != nil || empty {
		return err
	}
	for more := true; more; {
		key, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case foldEqual(key, "name"):
			err = d.name(col)
		case foldEqual(key, "values"):
			err = d.values(col)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// name decodes a "name" value into col.Name as its own allocation; null
// leaves the name unchanged.
func (d *wireDecoder) name(col *data.Column) error {
	if null, err := d.null(); err != nil || null {
		return err
	}
	if d.b[d.i] != '"' {
		return d.mismatch("name", "a string")
	}
	end, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if plain {
		col.Name = string(d.b[d.i+1 : end])
	} else {
		var sb strings.Builder
		sb.Grow(end - d.i)
		d.unquote(&sb, end)
		col.Name = sb.String()
	}
	d.i = end + 1
	return nil
}

// values decodes a "values" value into col.Values. The old slice's full
// capacity holds what earlier arrays wrote at each position, which a
// null element keeps; the result carries those hidden positions past its
// length, so a later, longer array sees them again.
func (d *wireDecoder) values(col *data.Column) error {
	if null, err := d.null(); err != nil || null {
		if null {
			col.Values = nil
		}
		return err
	}
	if d.b[d.i] != '[' {
		return d.mismatch("values", "an array")
	}
	empty, err := d.open('[', ']')
	if err != nil {
		return err
	}
	if empty {
		col.Values = []string{}
		return nil
	}
	old := col.Values[:cap(col.Values)]
	d.vals = d.vals[:0]
	for more := true; more; {
		if d.i < len(d.b) && d.b[d.i] == '"' {
			if err := d.value(); err != nil {
				return err
			}
		} else if null, err := d.null(); err != nil {
			return err
		} else if !null {
			return d.mismatch("value", "a string")
		} else {
			v := ""
			if k := len(d.vals); k < len(old) {
				v = old[k]
			}
			d.vals = append(d.vals, v)
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	n := len(d.vals)
	out := make([]string, n, max(n, len(old)))
	copy(out, d.vals)
	if n < len(old) {
		copy(out[n:cap(out)], old[n:])
	}
	col.Values = out
	return nil
}

// value decodes the string at the cursor into the arena and appends it
// to d.vals.
func (d *wireDecoder) value() error {
	end, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if d.arena.Cap() == 0 {
		// Decoded values never outgrow the rest of the body unless
		// invalid UTF-8 expands to U+FFFD.
		d.arena.Grow(len(d.b) - d.i)
	}
	start := d.arena.Len()
	if plain {
		d.arena.Write(d.b[d.i+1 : end])
	} else {
		d.unquote(&d.arena, end)
	}
	d.vals = append(d.vals, d.arena.String()[start:])
	d.i = end + 1
	return nil
}

// key reads an object key and the colon after it, returning the key's
// decoded bytes: a slice of the body when it needs no decoding.
func (d *wireDecoder) key() ([]byte, error) {
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	end, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	key := d.b[d.i+1 : end]
	if !plain {
		var sb strings.Builder
		d.unquote(&sb, end)
		key = []byte(sb.String())
	}
	d.i = end + 1
	d.space()
	if d.i == len(d.b) || d.b[d.i] != ':' {
		return nil, d.syntax("after object key")
	}
	d.i++
	d.space()
	return key, nil
}

// foldEqual reports whether key matches the lower-case ASCII field name
// the way encoding/json matches a key that is not exact: ASCII letters
// fold by case and every other rune by Unicode simple folding, so the
// Kelvin sign is a K and "ſ" an s.
func foldEqual(key []byte, field string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(field) {
			return false
		}
		want := rune(field[j] - ('a' - 'A'))
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if rune(c) != want {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		if foldRune(r) != want {
			return false
		}
		i += size
	}
	return j == len(field)
}

// foldRune returns the smallest rune of r's case-folding orbit, the
// representative encoding/json compares keys by.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// plainByte marks the ASCII bytes a JSON string carries as themselves:
// printable ASCII except the quote and the backslash.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString checks the string whose opening quote is at the cursor and
// returns the offset of its closing quote. plain reports that its bytes
// are its value: no escapes and valid UTF-8.
func (d *wireDecoder) scanString() (end int, plain bool, err error) {
	b := d.b
	plain = true
	for i := d.i + 1; i < len(b); {
		// Skip plain ASCII eight bytes at a time, stopping at the first
		// byte that needs a look.
		if i+8 <= len(b) {
			m := specialBytes(binary.LittleEndian.Uint64(b[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
		c := b[i]
		if c < utf8.RuneSelf {
			switch {
			case plainByte[c]:
				i++
			case c == '"':
				return i, plain, nil
			case c == '\\':
				n, err := d.escapeLen(i)
				if err != nil {
					return 0, false, err
				}
				plain = false
				i += n
			default:
				d.i = i
				return 0, false, d.syntax("in string literal")
			}
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			plain = false
		}
		i += size
	}
	d.i = len(b)
	return 0, false, d.syntax("in string literal")
}

// specialBytes flags, in the high bit of each byte lane of the
// little-endian word w, the bytes a JSON string scan must stop at: a
// quote, a backslash, a control character or a non-ASCII byte. Lanes
// above the lowest flagged one may be flagged falsely; the lowest is
// exact.
func specialBytes(w uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote := w ^ ('"' * ones)
	backslash := w ^ ('\\' * ones)
	control := (w - ' '*ones) &^ w
	return (control | (quote-ones)&^quote | (backslash-ones)&^backslash | w) & highs
}

// escapeLen checks the escape starting at the backslash b[i] and returns
// its length.
func (d *wireDecoder) escapeLen(i int) (int, error) {
	if i+1 < len(d.b) {
		switch d.b[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			return 2, nil
		case 'u':
			if hex4(d.b, i+2) >= 0 {
				return 6, nil
			}
		}
	}
	d.i = min(i+1, len(d.b))
	return 0, d.syntax("in string escape code")
}

// hex4 decodes the four hex digits at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote writes the value of the string between the cursor's opening
// quote and the closing quote at end into sb, which scanString has
// checked: escapes decoded, surrogate pairs joined, and lone surrogates
// and invalid UTF-8 bytes replaced with U+FFFD, as encoding/json does.
func (d *wireDecoder) unquote(sb *strings.Builder, end int) {
	b := d.b
	run := d.i + 1
	for i := run; i < end; {
		c := b[i]
		if c == '\\' {
			sb.Write(b[run:i])
			i += d.unescape(sb, i)
			run = i
			continue
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:end])
		if r == utf8.RuneError && size == 1 {
			sb.Write(b[run:i])
			sb.WriteRune(utf8.RuneError)
			run = i + 1
		}
		i += size
	}
	sb.Write(b[run:end])
}

// unescape writes the value of the checked escape at b[i] into sb and
// returns the number of bytes it spans.
func (d *wireDecoder) unescape(sb *strings.Builder, i int) int {
	b := d.b
	switch c := b[i+1]; c {
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case 't':
		sb.WriteByte('\t')
	case 'u':
		r := hex4(b, i+2)
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if i+7 < len(b) && b[i+6] == '\\' && b[i+7] == 'u' {
				r2 = hex4(b, i+8)
			}
			if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
				sb.WriteRune(pair)
				return 12
			}
			r = utf8.RuneError
		}
		sb.WriteRune(r)
		return 6
	default: // '"', '\\', '/'
		sb.WriteByte(c)
	}
	return 2
}

// skip checks the syntax of the value at the cursor and moves past it.
func (d *wireDecoder) skip() error {
	if d.i == len(d.b) {
		return d.syntax("looking for beginning of value")
	}
	switch c := d.b[d.i]; c {
	case '{', '[':
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		empty, err := d.open(c, closer)
		if err != nil || empty {
			return err
		}
		for more := true; more; {
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(); err != nil {
				return err
			}
			if more, err = d.next(closer); err != nil {
				return err
			}
		}
		return nil
	case '"':
		end, _, err := d.scanString()
		if err != nil {
			return err
		}
		d.i = end + 1
		return nil
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.number()
}

// number checks the JSON number at the cursor and moves past it.
func (d *wireDecoder) number() error {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.i = i
		return d.syntax("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			d.i = j
			return d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			d.i = j
			return d.syntax("in exponent of numeric literal")
		}
	}
	d.i = i
	return nil
}

// digits returns the offset of the first non-digit at or after b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// null reports whether the value at the cursor is null, moving past it if
// so; a value starting with n that is not null is a syntax error. The
// cursor must be on the value's first byte.
func (d *wireDecoder) null() (bool, error) {
	if d.i == len(d.b) {
		return false, d.syntax("looking for beginning of value")
	}
	if d.b[d.i] != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// literal moves past lit, which must be at the cursor.
func (d *wireDecoder) literal(lit string) error {
	k := 0
	for k < len(lit) && d.i < len(d.b) && d.b[d.i] == lit[k] {
		k++
		d.i++
	}
	if k < len(lit) {
		return d.syntax("in literal " + lit)
	}
	return nil
}

// open moves past the opener of an object or array at the cursor,
// counting its depth, and reports whether it is empty (the closer
// follows at once, and is consumed).
func (d *wireDecoder) open(opener, closer byte) (bool, error) {
	d.i++
	d.depth++
	if d.depth > maxWireDepth {
		return false, d.syntax("exceeded max depth")
	}
	d.space()
	if d.i < len(d.b) && d.b[d.i] == closer {
		d.i++
		d.depth--
		return true, nil
	}
	return false, nil
}

// next moves past the comma or closer that must follow an element,
// reporting whether another element follows.
func (d *wireDecoder) next(closer byte) (bool, error) {
	d.space()
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			d.space()
			return true, nil
		case closer:
			d.i++
			d.depth--
			return false, nil
		}
	}
	if closer == '}' {
		return false, d.syntax("after object key:value pair")
	}
	return false, d.syntax("after array element")
}

// space moves the cursor past JSON whitespace.
func (d *wireDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// syntax is the error for malformed JSON at the cursor.
func (d *wireDecoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return errors.New("invalid character " + strconv.QuoteRune(rune(d.b[d.i])) + " " + context + " at offset " + strconv.Itoa(d.i))
}

// mismatch is the error for a well-placed value of the wrong type.
func (d *wireDecoder) mismatch(what, want string) error {
	return errors.New("cannot decode " + what + " at offset " + strconv.Itoa(d.i) + ": want " + want)
}

// AppendInferRequest appends the InferRequest JSON of cols to dst and
// returns the extended buffer. Strings are escaped as json.Marshal
// escapes them, except that <, > and & stay as they are, and each
// invalid UTF-8 byte is written as \ufffd, so a column's name arrives as
// the name a replica echoes. nil columns or values encode as null. dst
// grows at most once when nothing needs escaping.
//
//shvet:hotpath shard-body encode of every gateway forward
func AppendInferRequest(dst []byte, cols []data.Column) []byte {
	if cols == nil {
		return append(dst, `{"columns":null}`...)
	}
	if need := encodedSize(cols); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, `{"columns":[`...)
	for i := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendString(dst, cols[i].Name)
		dst = append(dst, `,"values":`...)
		if cols[i].Values == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, v := range cols[i].Values {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendString(dst, v)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// encodedSize is the length of cols' encoding when no string needs
// escaping.
func encodedSize(cols []data.Column) int {
	n := len(`{"columns":[]}`)
	for i := range cols {
		n += len(`{"name":"","values":[]},`) + len(cols[i].Name)
		for _, v := range cols[i].Values {
			n += len(v) + len(`"",`)
		}
	}
	return n
}

// hexDigits are the lower-case hex digits encoding/json escapes with.
const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping off.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	run := 0
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			m := specialBytes(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
				uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
		if c := s[i]; c < utf8.RuneSelf {
			if plainByte[c] {
				i++
				continue
			}
			dst = append(dst, s[run:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			run = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[run:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			// Valid JSON, but not valid JavaScript: encoding/json escapes
			// the line and paragraph separators unconditionally.
			dst = append(dst, s[run:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		run = i
	}
	dst = append(dst, s[run:]...)
	return append(dst, '"')
}
