package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/gateway"
)

// computeOracle fills every table's want with the in-process
// core.Pipeline.Predict answer for each column, decoding each body the
// way the fleet does. It uses every core, before any timing starts.
func computeOracle(pipe *core.Pipeline, tables []*table) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	jobs := make(chan *table)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				cols, err := t.columns()
				if err == nil && len(cols) != len(t.names) {
					err = fmt.Errorf("body decodes to %d columns, generated %d", len(cols), len(t.names))
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("decoding a %s body: %w", t.path, err)
					}
					mu.Unlock()
					continue
				}
				want := make([]ftype.FeatureType, len(cols))
				for i := range cols {
					want[i], _ = pipe.Predict(&cols[i])
				}
				t.want = want
			}
		}()
	}
	for _, t := range tables {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	return first
}

// decodeAnswer decodes a gateway answer.
func decodeAnswer(body []byte) (*gateway.BatchResponse, error) {
	var resp gateway.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &resp, nil
}

// checkAnswer returns an error naming the first defect of a gateway
// answer to t: a wrong prediction count, a name that is missing,
// reordered or not echoed, a degraded answer, or a type that differs
// from the in-process reference.
func checkAnswer(t *table, resp *gateway.BatchResponse) error {
	if len(resp.Predictions) != len(t.names) {
		return fmt.Errorf("%d predictions for %d columns", len(resp.Predictions), len(t.names))
	}
	for i, p := range resp.Predictions {
		switch {
		case p.Name != t.names[i]:
			return fmt.Errorf("prediction %d names %q, column is %q", i, p.Name, t.names[i])
		case p.Degraded:
			return fmt.Errorf("prediction %d (%s) is degraded: %s", i, p.Name, p.Error)
		case p.Type != t.want[i].String():
			return fmt.Errorf("prediction %d (%s) is %s, in-process reference is %s", i, p.Name, p.Type, t.want[i])
		}
	}
	return nil
}

// tally is what one window's answers add up to. Requests are counted
// whole: one defect fails the request and none of its columns count as
// answered.
type tally struct {
	attempted, answered, failed int // requests
	transport, status, defects  int // failed requests by kind
	firstFailure                string

	columnsSent     int // columns in attempted requests
	columnsAnswered int // columns in answered requests
	labelCorrect    int // answered columns whose type equals the generator's label
	cacheHits       int // answered columns the owner replica served from cache
	fallback        int // columns of 200 answers the gateway answered from its rule fallback
	shards          int // shard groups over answered requests

	requests []requestStat // one per attempted request
	late     []float64     // ms the load generator ran behind each due time
}

// requestStat is what the slice figures need of one request.
type requestStat struct {
	done     time.Duration // offset of the answer into the window
	latency  float64       // ms from due time to answer, +Inf for a failed request
	answered int           // columns answered correctly, 0 for a failed request
}

// count checks every outcome of a window against the workload's
// reference answers. It drops the response bodies once read.
func count(wl *workload, outs []outcome) tally {
	var t tally
	for i := range outs {
		o := &outs[i]
		tb := wl.tables[o.table]
		t.attempted++
		t.columnsSent += len(tb.names)
		t.late = append(t.late, ms(o.late))
		var failure string
		switch {
		case o.err != nil:
			t.transport++
			failure = o.err.Error()
		case o.status != http.StatusOK:
			t.status++
			failure = fmt.Sprintf("status %d: %.200s", o.status, o.body)
		default:
			resp, err := decodeAnswer(o.body)
			if err == nil {
				t.fallback += resp.ModelVersions["fallback"]
				err = checkAnswer(tb, resp)
			}
			if err != nil {
				t.defects++
				failure = err.Error()
				break
			}
			t.answered++
			t.columnsAnswered += len(tb.names)
			t.shards += resp.Shards
			for j, p := range resp.Predictions {
				if p.Type == tb.labels[j].String() {
					t.labelCorrect++
				}
				if p.CacheHit {
					t.cacheHits++
				}
			}
		}
		o.body = nil
		if failure != "" {
			t.failed++
			if t.firstFailure == "" {
				t.firstFailure = fmt.Sprintf("request %s: %s", o.rid, failure)
			}
			t.requests = append(t.requests, requestStat{done: o.done, latency: math.Inf(1)})
			continue
		}
		t.requests = append(t.requests, requestStat{done: o.done, latency: ms(o.done - o.due), answered: len(tb.names)})
	}
	return t
}

// slice is one slice of a timed window: the requests answered in it and
// the process counters over it.
type slice struct {
	dur       time.Duration
	columns   int       // columns answered correctly
	latencies []float64 // ms, of the requests answered in the slice
	counters  processCounters
}

// slices cuts a window at its marks and assigns each request to the
// slice its answer arrived in.
func slices(w window, t tally) []slice {
	out := make([]slice, len(w.marks)-1)
	for i := range out {
		out[i].dur = w.marks[i+1].at - w.marks[i].at
		out[i].counters = w.marks[i+1].minus(w.marks[i].processCounters)
	}
	for _, r := range t.requests {
		i := sort.Search(len(out), func(i int) bool { return w.marks[i+1].at > r.done })
		if i == len(out) {
			i--
		}
		out[i].columns += r.answered
		out[i].latencies = append(out[i].latencies, r.latency)
	}
	return out
}

// premise returns why the window's answers break the workload's premise,
// or "" when they do not: the cache-hit share must lie in the workload's
// band.
func premise(wl *workload, t tally) string {
	if t.columnsAnswered == 0 {
		return "no column was answered"
	}
	r := float64(t.cacheHits) / float64(t.columnsAnswered)
	if r < wl.cacheHitMin || r > wl.cacheHitMax {
		return fmt.Sprintf("serve.cache_hit_ratio %.4f (%d of %d columns) outside [%g, %g]",
			r, t.cacheHits, t.columnsAnswered, wl.cacheHitMin, wl.cacheHitMax)
	}
	return ""
}
