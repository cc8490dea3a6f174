package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sortinghat/internal/data"
	"sortinghat/internal/serve"
)

// wireQuirks are request bodies pinning each rule of the infer request
// codec's contract (serve.DecodeInferRequest) with the columns
// encoding/json makes of them; nil cols with bad set means a rejected
// body.
var wireQuirks = []struct {
	name string
	body string
	cols []data.Column
	bad  bool
}{
	{name: "exact keys",
		body: `{"columns":[{"name":"price","values":["1.5","2.25","3"]}]}`,
		cols: []data.Column{{Name: "price", Values: []string{"1.5", "2.25", "3"}}}},
	{name: "keys fold case",
		body: `{"COLUMNS":[{"Name":"price","VALUES":["1.5","2.25","3"]}]}`,
		cols: []data.Column{{Name: "price", Values: []string{"1.5", "2.25", "3"}}}},
	{name: "long s folds to s",
		body: "{\"column\u017f\":[{\"name\":\"price\",\"value\\u017f\":[\"1.5\"]}]}",
		cols: []data.Column{{Name: "price", Values: []string{"1.5"}}}},
	{name: "Kelvin sign folds to k, not to any letter of name",
		body: "{\"columns\":[{\"name\":\"price\",\"na\u212ae\":\"other\",\"values\":[\"1\"]}]}",
		cols: []data.Column{{Name: "price", Values: []string{"1"}}}},
	{name: "unknown keys skipped",
		body: `{"meta":{"a":[1,-2.5e3,true,null,{"b":"c"}]},"columns":[{"id":7,"name":"price","tags":["x"],"values":["1","2"]}]}`,
		cols: []data.Column{{Name: "price", Values: []string{"1", "2"}}}},
	{name: "unknown value nested 10000 deep",
		body: `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"columns":[{"name":"price","values":["1"]}]}`,
		cols: []data.Column{{Name: "price", Values: []string{"1"}}}},
	{name: "unknown value nested 10001 deep",
		body: `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"columns":[{"name":"price","values":["1"]}]}`,
		bad:  true},
	{name: "null columns",
		body: `{"columns":[{"name":"price"}],"columns":null}`,
		cols: nil},
	{name: "null values",
		body: `{"columns":[{"name":"price","values":["1"],"values":null}]}`,
		cols: []data.Column{{Name: "price"}}},
	{name: "null name and null value keep what is there",
		body: `{"columns":[{"name":"price","name":null,"values":["1",null]}]}`,
		cols: []data.Column{{Name: "price", Values: []string{"1", ""}}}},
	{name: "repeated values decode into the existing elements",
		body: `{"columns":[{"name":"price","values":["1","2","3"],"values":["9"],"values":[null,null,null]}]}`,
		cols: []data.Column{{Name: "price", Values: []string{"9", "2", "3"}}}},
	{name: "repeated columns decode into the existing elements",
		body: `{"columns":[{"name":"a","values":["1"]},{"name":"b","values":["2"]}],"columns":[{"values":["3"]}],"columns":[{},null]}`,
		cols: []data.Column{{Name: "a", Values: []string{"3"}}, {Name: "b", Values: []string{"2"}}}},
	{name: "an empty array starts over",
		body: `{"columns":[{"name":"a","values":["1","2"]}],"columns":[],"columns":[{"values":[null]}]}`,
		cols: []data.Column{{Values: []string{""}}}},
	{name: "escapes and surrogates",
		body: `{"columns":[{"name":"caf\u00e9 \ud83d\ude00","values":["a\"b","\\\/\b\f\n\r\t","\ud800","\udc00x","\ud800A"]}]}`,
		cols: []data.Column{{Name: "caf\u00e9 \U0001F600", Values: []string{"a\"b", "\\/\b\f\n\r\t", "\ufffd", "\ufffdx", "\ufffdA"}}}},
	{name: "invalid UTF-8 becomes U+FFFD",
		body: "{\"columns\":[{\"name\":\"Temp\xe9rature\",\"values\":[\"\xff1\"]}]}",
		cols: []data.Column{{Name: "Temp\ufffdrature", Values: []string{"\ufffd1"}}}},
	{name: "raw control character",
		body: "{\"columns\":[{\"name\":\"a\tb\"}]}",
		bad:  true},
	{name: "name of the wrong type",
		body: `{"columns":[{"name":5}]}`,
		bad:  true},
	{name: "value of the wrong type",
		body: `{"columns":[{"name":"price","values":[1]}]}`,
		bad:  true},
	{name: "columns of the wrong type",
		body: `{"columns":{}}`,
		bad:  true},
	{name: "bytes after the value ignored",
		body: `{"columns":[{"name":"price","values":["1"]}]} {"not":"read"`,
		cols: []data.Column{{Name: "price", Values: []string{"1"}}}},
}

// post sends body to h's /v1/infer and returns the status and the error
// or predictions it answered.
func post(t *testing.T, h http.Handler, body []byte) (int, string, []serve.InferPrediction) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	var resp struct {
		Error       string                  `json:"error"`
		Predictions []serve.InferPrediction `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, rec.Body.Bytes())
	}
	return rec.Code, resp.Error, resp.Predictions
}

// namesAliasValues reports whether any name points into the memory the
// values occupy.
func namesAliasValues(cols []data.Column) bool {
	lo, hi := uintptr(math.MaxUint64), uintptr(0)
	for _, c := range cols {
		for _, v := range c.Values {
			if v != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
				lo, hi = min(lo, p), max(hi, p+uintptr(len(v)))
			}
		}
	}
	for _, c := range cols {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(c.Name))); c.Name != "" && p < hi && p+uintptr(len(c.Name)) > lo {
			return true
		}
	}
	return false
}

// TestInferWireQuirks pins each rule of the wire codec's contract end to
// end. Every table entry is checked against encoding/json and the codec,
// then sent to a replica and through a 2-replica gateway: an accepted
// body answers exactly as its columns sent plainly do (on the replica,
// from the cache entry the plain request left, which proves the same
// name and values arrived), an empty one is an empty batch, and a
// rejected one is a 400 decoding error.
func TestInferWireQuirks(t *testing.T) {
	fleet, addrs := startFleet(t, 2, nil)
	replica := fleet[0].srv.Handler()
	gw := newTestGateway(t, addrs, nil).Handler()
	for _, tc := range wireQuirks {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			var ref serve.InferRequest
			refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
			cols, err := serve.DecodeInferRequest(body, serve.DefaultMaxBatch)
			if tc.bad {
				if refErr == nil || err == nil {
					t.Fatalf("encoding/json err %v, codec err %v: want both to reject", refErr, err)
				}
				for tier, h := range map[string]http.Handler{"replica": replica, "gateway": gw} {
					if code, msg, _ := post(t, h, body); code != http.StatusBadRequest || !strings.HasPrefix(msg, "decoding request: ") {
						t.Errorf("%s answered %d %q, want 400 decoding request", tier, code, msg)
					}
				}
				return
			}
			if refErr != nil || err != nil {
				t.Fatalf("encoding/json err %v, codec err %v: want both to accept", refErr, err)
			}
			if !reflect.DeepEqual(cols, tc.cols) {
				t.Errorf("codec decodes %#v, want %#v", cols, tc.cols)
			}
			plain := make([]data.Column, len(ref.Columns))
			for i, c := range ref.Columns {
				plain[i] = data.Column{Name: c.Name, Values: c.Values}
			}
			if !reflect.DeepEqual(plain, tc.cols) && len(tc.cols) > 0 {
				t.Errorf("encoding/json decodes %#v, want %#v", plain, tc.cols)
			}
			if namesAliasValues(cols) {
				t.Errorf("a decoded name aliases the values' backing string")
			}
			if len(tc.cols) == 0 {
				for tier, h := range map[string]http.Handler{"replica": replica, "gateway": gw} {
					if code, msg, _ := post(t, h, body); code != http.StatusBadRequest || !strings.HasPrefix(msg, "empty batch") {
						t.Errorf("%s answered %d %q, want 400 empty batch", tier, code, msg)
					}
				}
				return
			}
			req := serve.InferRequest{Columns: make([]serve.InferColumn, len(tc.cols))}
			for i, c := range tc.cols {
				req.Columns[i] = serve.InferColumn{Name: c.Name, Values: c.Values}
			}
			canonical, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			code, msg, want := post(t, replica, canonical)
			if code != http.StatusOK {
				t.Fatalf("plain request answered %d %q", code, msg)
			}
			for tier, h := range map[string]http.Handler{"replica": replica, "gateway": gw} {
				code, msg, got := post(t, h, body)
				if code != http.StatusOK || len(got) != len(want) {
					t.Fatalf("%s answered %d %q with %d predictions, want 200 with %d", tier, code, msg, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Name != w.Name || g.Type != w.Type || g.Confidence != w.Confidence || g.Degraded != w.Degraded {
						t.Errorf("%s column %d = %q %s %v, plain request %q %s %v", tier, i, g.Name, g.Type, g.Confidence, w.Name, w.Type, w.Confidence)
					}
					if tier == "replica" && !g.CacheHit {
						t.Errorf("replica column %d missed the cache entry of its plain twin: name or values differ", i)
					}
				}
			}
		})
	}
}

// ingressAlloc serves one POST /v1/infer of body, declaring length
// declared, and returns the response and the bytes allocated meanwhile.
func ingressAlloc(h http.Handler, body []byte, declared int64) (*httptest.ResponseRecorder, uint64) {
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc
}

// TestGatewayIngressMemoryBounded is the regression test for JSON ingress
// amplification: a 64 MiB body of empty columns once allocated over
// 1 GiB before its rejection. It must be rejected as before while
// allocating at most 3x its size, and a 10-byte body claiming 64 MiB
// must cost at most 2 MiB.
func TestGatewayIngressMemoryBounded(t *testing.T) {
	g, err := New(Config{Replicas: []string{"http://127.0.0.1:1/a", "http://127.0.0.1:1/b"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	h := g.Handler()

	const size = maxRequestBody
	n := (size - len(`{"columns":[{}]}`)) / len(`{},`)
	body := make([]byte, 0, size)
	body = append(body, `{"columns":[`...)
	body = append(body, bytes.Repeat([]byte(`{},`), n)...)
	body = append(body, `{}]}`...)
	rec, alloc := ingressAlloc(h, body, int64(len(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "batch too large: max 1024 columns") {
		t.Errorf("%d-byte body of empty columns answered %d %s, want 400 batch too large", len(body), rec.Code, rec.Body.Bytes())
	}
	if alloc > 3*uint64(len(body)) {
		t.Errorf("%d-byte body allocated %d bytes, want at most 3x", len(body), alloc)
	}

	rec, alloc = ingressAlloc(h, []byte(`{"columns"`), 64<<20)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("10-byte body declaring 64 MiB answered %d %s, want 400", rec.Code, rec.Body.Bytes())
	}
	if alloc > 2<<20 {
		t.Errorf("10-byte body declaring 64 MiB allocated %d bytes, want at most 2 MiB", alloc)
	}
}
