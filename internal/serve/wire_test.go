package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"sortinghat/internal/data"
)

// decodeSeeds are request bodies covering each rule of the codec contract;
// they seed FuzzDecodeInferRequest (next to the committed corpus under
// testdata/fuzz) and TestDecodeInferRequestMatchesJSON.
var decodeSeeds = []string{
	`{"columns":[{"name":"a","values":["1","2"]},{"name":"b","values":[]}]}`,
	`{"COLUMNS":[{"Name":"a","VALUES":["x"]}]}`,
	"{\"column\u017f\":[{\"name\":\"a\",\"value\u017f\":[\"x\"]}]}",
	`{"column\u017f":[{"name":"a","value\u017F":["x"]}]}`,
	"{\"columns\":[{\"na\u212ae\":\"a\",\"\u212a\":1}]}",
	`{"columns":[{"name":"a"}],"columns":null}`,
	`{"columns":[{"name":"a","values":["x"],"values":null}]}`,
	`{"columns":[{"name":"a","name":null,"values":[null,"y"]}]}`,
	`{"columns":[{"name":"a","values":["x","y","z"],"values":["q"],"values":[null,null,null]}]}`,
	`{"columns":[{"name":"a"},{"name":"b"}],"columns":[{"values":["1"]}],"columns":[{},null]}`,
	`{"columns":[{"name":"a","values":["x","y"]}],"columns":[],"columns":[{"values":[null,null]}]}`,
	`{"columns":[null,{"name":"b"}]}`,
	`{"columns":[{"name":"caf\u00e9 \ud83d\ude00","values":["a\"b","\\\/\b\f\n\r\t","\ud800","\udc00x","\ud800A","\ud834\udd1e","\ud800\ud800\udc00","\uDBFF\uDFFF"]}]}`,
	"{\"columns\":[{\"name\":\"Temp\xe9rature\",\"values\":[\"\xff\xfe\",\"a\xc3\",\"\xed\xa0\x80\"]}]}",
	"{\"columns\":[{\"name\":\"a\tb\"}]}",
	`{"columns":[{"name":5}]}`,
	`{"columns":{}}`,
	`{"columns":[{"values":[1]}]}`,
	`{"columns":["a"]}`,
	`{"columns":[{"values":"x"}]}`,
	`{"columns":[{"name":"a","values":["1"]}]} trailing {garbage`,
	`null`,
	`nullx`,
	` {"columns":[]} `,
	"\t{ \"columns\" :\r[ { \"name\" : \"a\" , \"values\" : [ \"x\" , null ] } ,\nnull ] , \"k\" : [ 1 , { \"z\" : [ ] } , { } ] }\n",
	`[]`,
	`"x"`,
	`{"meta":{"a":[1,-2.5e+3,0.1,true,false,null,{"b":"cA"}]},"columns":[{"x":[],"name":"a","y":{}}]}`,
	`{"columns":[{"name":"a",}]}`,
	`{"columns":[{"name":"a"},]}`,
	`{"columns":[{"name":"a" "values":[]}]}`,
	`{"x":01,"columns":[]}`,
	`{"x":1.,"columns":[]}`,
	`{"x":-,"columns":[]}`,
	`{"x":"\x"}`,
	`{"x":"\u12"}`,
	`{"columns":[{"name":"a","values":["x"]}]`,
	``,
	`   `,
	"{\"columns\":[{\"name\":\"<&>\",\"values\":[\"\u2028\u2029\"]}]}",
}

// inferColumns converts decoded columns to the InferRequest shape
// encoding/json fills, keeping nil and empty slices apart.
func inferColumns(cols []data.Column) []InferColumn {
	if cols == nil {
		return nil
	}
	out := make([]InferColumn, len(cols))
	for i, c := range cols {
		out[i] = InferColumn{Name: c.Name, Values: c.Values}
	}
	return out
}

// jsonDecode is the reference: what encoding/json's Decoder makes of
// body, as the infer handlers decoded it before the wire codec.
func jsonDecode(body []byte) ([]InferColumn, error) {
	var req InferRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Columns, err
}

// checkDecode compares DecodeInferRequest with the reference on body.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := jsonDecode(body)
	got, err := DecodeInferRequest(body, math.MaxInt)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeInferRequest(%q): err %v, encoding/json: %v", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(inferColumns(got), want) {
		t.Fatalf("DecodeInferRequest(%q)\n got %#v\nwant %#v", body, inferColumns(got), want)
	}
	// A column limit changes nothing until an array passes it.
	limited, lerr := DecodeInferRequest(body, 2)
	switch {
	case errors.Is(lerr, ErrTooManyColumns):
		if len(limited) != 3 {
			t.Fatalf("DecodeInferRequest(%q, 2) stopped with %d columns, want 3", body, len(limited))
		}
	case (lerr == nil) != (err == nil) || lerr == nil && !reflect.DeepEqual(limited, got):
		t.Fatalf("DecodeInferRequest(%q, 2) = %v, %v; unlimited %v, %v", body, limited, lerr, got, err)
	}
}

// TestDecodeInferRequestMatchesJSON runs the differential check over the
// seeds and deep nesting on either side of encoding/json's limit.
func TestDecodeInferRequestMatchesJSON(t *testing.T) {
	for _, seed := range decodeSeeds {
		checkDecode(t, []byte(seed))
	}
	for _, k := range []int{9998, 9999, 10000} {
		checkDecode(t, []byte(`{"x":`+strings.Repeat("[", k)+strings.Repeat("]", k)+`,"columns":[{"name":"a"}]}`))
		checkDecode(t, []byte(`{"columns":[{"x":`+strings.Repeat(`{"a":`, k)+"0"+strings.Repeat("}", k)+`}]}`))
	}
}

// FuzzDecodeInferRequest holds DecodeInferRequest to encoding/json's
// Decoder: the same bodies accepted, the same columns out.
func FuzzDecodeInferRequest(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestSpecialBytes checks the word-at-a-time scan against the byte table:
// for every byte in every lane of plain filler, and behind every special
// byte in a lower lane, the lowest flagged lane is the first byte the
// byte loop would stop at.
func TestSpecialBytes(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for c := 0; c < 256; c++ {
			for _, below := range []byte{'a', '"', '\\', 0x1f, 0x80} {
				w := []byte("abcdefgh")
				if lane > 0 {
					w[lane-1] = below
				}
				w[lane] = byte(c)
				want := 8
				for i, b := range w {
					if b >= utf8.RuneSelf || !plainByte[b] {
						want = i
						break
					}
				}
				if got := bits.TrailingZeros64(specialBytes(binary.LittleEndian.Uint64(w))) >> 3; got != want {
					t.Fatalf("specialBytes(%q) stops at lane %d, want %d", w, got, want)
				}
			}
		}
	}
}

// wireString is s as JSON carries it: each invalid UTF-8 byte becomes
// U+FFFD.
func wireString(s string) string {
	return string([]rune(s))
}

// wireColumns is cols as they decode after a round trip through JSON.
func wireColumns(cols []data.Column) []data.Column {
	if cols == nil {
		return nil
	}
	out := make([]data.Column, len(cols))
	for i, c := range cols {
		out[i].Name = wireString(c.Name)
		if c.Values != nil {
			out[i].Values = make([]string, len(c.Values))
			for j, v := range c.Values {
				out[i].Values[j] = wireString(v)
			}
		}
	}
	return out
}

// checkAppend round-trips cols through AppendInferRequest.
func checkAppend(t *testing.T, cols []data.Column) {
	t.Helper()
	body := AppendInferRequest([]byte("prefix"), cols)
	if !bytes.HasPrefix(body, []byte("prefix")) {
		t.Fatalf("AppendInferRequest dropped dst: %q", body)
	}
	body = body[len("prefix"):]
	var ref bytes.Buffer
	enc := json.NewEncoder(&ref)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(InferRequest{Columns: inferColumns(cols)}); err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSuffix(ref.Bytes(), []byte("\n")); !bytes.Equal(body, want) {
		t.Fatalf("AppendInferRequest(%q)\n got %s\nwant %s", cols, body, want)
	}
	want := wireColumns(cols)
	viaJSON, err := jsonDecode(body)
	if err != nil || !reflect.DeepEqual(viaJSON, inferColumns(want)) {
		t.Fatalf("encoding/json reads %q back as %q (%v), want %q", body, viaJSON, err, want)
	}
	got, err := DecodeInferRequest(body, math.MaxInt)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeInferRequest reads %q back as %q (%v), want %q", body, got, err, want)
	}
}

// FuzzAppendInferRequest checks that encoding/json and
// DecodeInferRequest both read the encoder's output back as the
// wire-normalized columns, and that the output is encoding/json's with
// HTML escaping off.
func FuzzAppendInferRequest(f *testing.F) {
	f.Add("col_1", "1,2,3", "Temp\xe9rature", "a\"b,\\,\x00\x1f\x7f", byte(0))
	f.Add("<&>", "\u2028,\u2029,\ufffd", "\xed\xa0\x80", "\xff\xfe,a\xc3", byte(1))
	f.Add("", "", "caf\u00e9", "\U0001F600", byte(6))
	f.Add("x", "y", "z", "w", byte(8))
	f.Fuzz(func(t *testing.T, name1, vals1, name2, vals2 string, shape byte) {
		cols := []data.Column{
			{Name: name1, Values: strings.Split(vals1, ",")},
			{Name: name2, Values: strings.Split(vals2, ",")},
		}
		if shape&1 != 0 {
			cols[0].Values = nil
		}
		if shape&2 != 0 {
			cols[1].Values = []string{}
		}
		if shape&4 != 0 {
			cols = cols[:1]
		}
		if shape&8 != 0 {
			cols = nil
		}
		checkAppend(t, cols)
	})
}

// TestDecodedNamesDoNotAliasValues pins the aliasing rule: every value of
// a request aliases one backing string, and no name points into it, so a
// name kept by the trace ring or a flight record never pins a body.
func TestDecodedNamesDoNotAliasValues(t *testing.T) {
	body := []byte(`{"columns":[{"name":"plain","values":["a","b\"c","d"]},` +
		"{\"name\":\"esc\u00e9\\\"\",\"values\":[\"\u00e9\",\"\",\"" + strings.Repeat("x", 300) + "\"]}," +
		"{\"name\":\"bad\xff\",\"values\":[\"tail\"]}]}")
	cols, err := DecodeInferRequest(body, 8)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := uintptr(math.MaxUint64), uintptr(0)
	for _, c := range cols {
		for _, v := range c.Values {
			if v == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
			lo, hi = min(lo, p), max(hi, p+uintptr(len(v)))
		}
	}
	if hi-lo > uintptr(len(body)) {
		t.Fatalf("values span %d bytes for a %d-byte body: they do not share one backing string", hi-lo, len(body))
	}
	for _, c := range cols {
		p := uintptr(unsafe.Pointer(unsafe.StringData(c.Name)))
		if p+uintptr(len(c.Name)) > lo && p < hi {
			t.Errorf("name %q aliases the values' backing string", c.Name)
		}
	}
}

// TestReadBodyBounded pins readBody's buffer: one byte past the declared
// length for an honest request, at most 1 MiB up front for a lying one,
// and the MaxBytesError past the limit.
func TestReadBodyBounded(t *testing.T) {
	read := func(body string, declared, limit int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
		r.ContentLength = declared
		return readBody(httptest.NewRecorder(), r, limit)
	}
	for _, body := range []string{"", "{}", strings.Repeat("x", 3<<20)} {
		for _, declared := range []int64{int64(len(body)), -1, 64 << 20} {
			got, err := read(body, declared, 64<<20)
			if err != nil || string(got) != body {
				t.Fatalf("readBody(%d bytes, Content-Length %d) = %d bytes, %v", len(body), declared, len(got), err)
			}
			switch {
			case declared == int64(len(body)) && cap(got) != len(body)+1:
				t.Errorf("honest %d-byte body read into a %d-byte buffer, want %d", len(body), cap(got), len(body)+1)
			case declared > int64(len(body)) && cap(got) > max(2*len(body), 1<<20+1):
				t.Errorf("%d-byte body declaring %d read into a %d-byte buffer", len(body), declared, cap(got))
			}
		}
	}
	if _, err := read(strings.Repeat("x", 100), -1, 99); !errors.As(err, new(*http.MaxBytesError)) {
		t.Errorf("100-byte body under a 99-byte limit: err %v, want *http.MaxBytesError", err)
	}
}

// TestInferIngressMemoryBounded is the regression test for JSON ingress
// amplification: a 64 MiB body of empty columns once allocated over
// 1 GiB before its rejection. It must be rejected as before while
// allocating at most 3x its size, and a 10-byte body claiming 64 MiB
// must cost at most 2 MiB.
func TestInferIngressMemoryBounded(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1}).Handler()
	serveOnce := func(body []byte, declared int64) (*httptest.ResponseRecorder, uint64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}

	n := (maxRequestBody - len(`{"columns":[{}]}`)) / len(`{},`)
	body := make([]byte, 0, maxRequestBody)
	body = append(body, `{"columns":[`...)
	body = append(body, bytes.Repeat([]byte(`{},`), n)...)
	body = append(body, `{}]}`...)
	rec, alloc := serveOnce(body, int64(len(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "batch too large: max 1024 columns") {
		t.Errorf("%d-byte body of empty columns answered %d %s, want 400 batch too large", len(body), rec.Code, rec.Body.Bytes())
	}
	if alloc > 3*uint64(len(body)) {
		t.Errorf("%d-byte body allocated %d bytes, want at most 3x", len(body), alloc)
	}

	rec, alloc = serveOnce([]byte(`{"columns"`), 64<<20)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("10-byte body declaring 64 MiB answered %d %s, want 400", rec.Code, rec.Body.Bytes())
	}
	if alloc > 2<<20 {
		t.Errorf("10-byte body declaring 64 MiB allocated %d bytes, want at most 2 MiB", alloc)
	}
}
