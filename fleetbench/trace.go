package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark can see from outside
// the program: the client's request, the gateway's handler, each leg the
// gateway forwards through its Config.Client transport, and each
// replica's handler.
const (
	spanClient  = "client"
	spanGateway = "gateway.handle"
	spanForward = "gateway.forward"
	spanServe   = "serve.handle"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's origin. Spans of one client request share RequestID, the
// X-Request-Id the client sets and the gateway forwards to every leg.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root
	Name      string `json:"name"`
	RequestID string `json:"request_id"`
	Replica   string `json:"replica,omitempty"` // host:port of the replica a leg or handler belongs to
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Status    int    `json:"status,omitempty"` // HTTP status of a forwarded leg
	Bytes     int64  `json:"bytes,omitempty"`  // request plus response body bytes of a forwarded leg
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory for the length of a traced window; they
// are linked and written out when the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// window returns a copy of the spans of one timed window: those whose
// request ID carries the window's tag. Warm-up requests and health
// probes are left out.
func (r *recorder) window(tag string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if strings.HasPrefix(s.RequestID, tag+"-") && !strings.HasPrefix(s.RequestID, tag+"-warmup-") {
			out = append(out, s)
		}
	}
	return out
}

// handler records one span of the given name around every request h
// serves.
func (r *recorder) handler(name, replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{Name: name, RequestID: req.Header.Get("X-Request-Id"), Replica: replica, StartNS: start, EndNS: r.now()})
	})
}

// transport records one spanForward per round trip through base. The
// span ends when the gateway closes the response body, so it covers the
// replica's whole answer, not only its headers.
func (r *recorder) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		s := span{Name: spanForward, RequestID: req.Header.Get("X-Request-Id"), Replica: req.URL.Host, StartNS: r.now()}
		if req.ContentLength > 0 {
			s.Bytes = req.ContentLength
		}
		resp, err := base.RoundTrip(req)
		if err != nil {
			s.EndNS = r.now()
			r.add(s)
			return nil, err
		}
		s.Status = resp.StatusCode
		resp.Body = &spanBody{ReadCloser: resp.Body, rec: r, s: s}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// spanBody counts a forwarded leg's response bytes and ends its span on
// the first Close.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.EndNS = b.rec.now()
		b.rec.add(b.s)
	})
	return err
}

// link sets every span's parent: a gateway.handle's client span, a
// forward leg's gateway.handle, and a serve.handle's forward leg to the
// same replica whose interval contains it. It returns a copy of spans
// sorted by start time, with Parent set to the parent's ID or -1.
func link(spans []span) []span {
	spans = append([]span(nil), spans...)
	byRID := map[string][]int{}
	for i := range spans {
		byRID[spans[i].RequestID] = append(byRID[spans[i].RequestID], i)
	}
	parentName := map[string]string{spanGateway: spanClient, spanForward: spanGateway, spanServe: spanForward}
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		want, ok := parentName[s.Name]
		if !ok || s.RequestID == "" {
			continue
		}
		best := -1
		for _, j := range byRID[s.RequestID] {
			p := &spans[j]
			if p.Name != want || p.StartNS > s.StartNS || p.EndNS < s.EndNS {
				continue
			}
			if want == spanForward && p.Replica != s.Replica {
				continue
			}
			if best < 0 || p.dur() < spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].StartNS < spans[b].StartNS })
	return spans
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval its children cover. Concurrent children (a
// batch's legs to both replicas) are merged, so an interval is never
// subtracted twice.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.StartNS, s.EndNS, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi] that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		if iv[0] > end {
			end = iv[0]
		}
		total += iv[1] - end
		end = iv[1]
	}
	return total
}

// unaccounted sums, over client spans, the time no layer span of the
// same request covers: client-side transport, loopback and everything
// before the gateway's handler starts or after it returns. It returns
// that sum and the total client time it is a share of.
func unaccounted(spans []span) (outside, total int64) {
	layers := map[string][][2]int64{}
	for _, s := range spans {
		if s.Name != spanClient {
			layers[s.RequestID] = append(layers[s.RequestID], [2]int64{s.StartNS, s.EndNS})
		}
	}
	for _, s := range spans {
		if s.Name != spanClient {
			continue
		}
		total += s.dur()
		outside += s.dur() - covered(s.StartNS, s.EndNS, layers[s.RequestID])
	}
	return outside, total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
