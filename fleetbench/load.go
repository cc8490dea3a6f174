package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sortinghat/internal/gateway"
)

// newClient is the load generator's HTTP client: at most GOMAXPROCS
// connections to the gateway, matching its GOMAXPROCS sending goroutines.
func newClient() *http.Client {
	n := runtime.GOMAXPROCS(0)
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// outcome is one request of a timed window. Times are offsets from the
// window's start.
type outcome struct {
	table  int
	rid    string
	due    time.Duration // when the request was due to be sent
	late   time.Duration // how late the load generator issued it against due
	sent   time.Duration
	done   time.Duration
	status int
	err    error
	body   []byte
}

// sliceLength is the length of the slices a timed window is cut into.
// End-to-end figures are medians over slices: on a shared host whole
// seconds at a time run slower, and a median over slices reports the
// program, not those episodes.
const sliceLength = 2 * time.Second

// window is one timed stretch of load with the process counters read at
// every slice boundary.
type window struct {
	outcomes []outcome
	wall     time.Duration // window start to the last request's completion
	marks    []mark        // counters at the start, each boundary and the end
}

// mark is the process counters at one offset into a window.
type mark struct {
	at time.Duration
	processCounters
}

// processCounters are the counters a window is measured by: process
// user+sys CPU, heap bytes allocated, and the runtime's estimates of GC
// and total CPU seconds.
type processCounters struct {
	cpu    time.Duration
	allocs uint64
	gcCPU  float64
	allCPU float64
}

func (c processCounters) minus(b processCounters) processCounters {
	return processCounters{cpu: c.cpu - b.cpu, allocs: c.allocs - b.allocs, gcCPU: c.gcCPU - b.gcCPU, allCPU: c.allCPU - b.allCPU}
}

// total is the counters over the whole window.
func (w *window) total() processCounters {
	return w.marks[len(w.marks)-1].minus(w.marks[0].processCounters)
}

func readCounters() processCounters {
	var ru syscall.Rusage
	var c processCounters
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.allocs = samples[0].Value.Uint64()
	c.gcCPU = samples[1].Value.Float64()
	c.allCPU = samples[2].Value.Float64()
	return c
}

// send posts one table to the gateway and reads the whole answer.
func send(ctx context.Context, client *http.Client, url string, t *table, rid string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+t.path, bytes.NewReader(t.body))
	if err != nil {
		return 0, nil, err
	}
	if t.path == pathCSV {
		req.Header.Set("Content-Type", "text/csv")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", rid)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// load describes one timed window's traffic.
type load struct {
	client      *http.Client
	url         string
	wl          *workload
	seconds     float64
	maxRequests int       // 0 = no cap
	tag         string    // request-id prefix, unique per window
	rec         *recorder // client spans go here when tracing
}

// run drives the fleet for one window. Without a schedule it is a
// closed loop: GOMAXPROCS clients each send their next table when the
// previous answer is in, until the window's time is up. With one it is
// an open loop: a dispatcher queues each request at its due time, and
// GOMAXPROCS senders take requests off the queue, so a request that
// waits for a free sender waits in the client, on the clock of its
// latency, while the dispatcher keeps the schedule. The window ends when
// the last request is answered.
func (l *load) run(ctx context.Context) window {
	senders := runtime.GOMAXPROCS(0)
	length := time.Duration(l.seconds * float64(time.Second))
	per := make([][]outcome, senders)
	marks := []mark{{processCounters: readCounters()}}
	start := time.Now()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for at := sliceLength; at < length; at += sliceLength {
			t := time.NewTimer(time.Until(start.Add(at)))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
				marks = append(marks, mark{at: time.Since(start), processCounters: readCounters()})
			}
		}
	}()
	exec := func(w, k int, due, late time.Duration) {
		o := outcome{table: l.wl.order[k%len(l.wl.order)], rid: l.tag + "-" + strconv.Itoa(k), due: due, late: late}
		o.sent = time.Since(start)
		o.status, o.body, o.err = send(ctx, l.client, l.url, l.wl.tables[o.table], o.rid)
		o.done = time.Since(start)
		if l.rec != nil {
			origin := int64(start.Sub(l.rec.origin))
			l.rec.add(span{Name: spanClient, RequestID: o.rid, StartNS: origin + int64(o.sent), EndNS: origin + int64(o.done)})
		}
		per[w] = append(per[w], o)
	}
	var wg sync.WaitGroup
	if l.wl.due == nil {
		var next atomic.Int64
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ready := time.Duration(0)
				for time.Since(start) < length {
					k := int(next.Add(1) - 1)
					if l.maxRequests > 0 && k >= l.maxRequests {
						return
					}
					exec(w, k, ready, time.Since(start)-ready)
					ready = per[w][len(per[w])-1].done
				}
			}(w)
		}
	} else {
		n := len(l.wl.due)
		if l.maxRequests > 0 && n > l.maxRequests {
			n = l.maxRequests
		}
		type dispatch struct {
			k    int
			late time.Duration
		}
		queue := make(chan dispatch, n) // holds the whole schedule, so the dispatcher never blocks
		go func() {
			defer close(queue)
			for k := 0; k < n; k++ {
				if wait := time.Until(start.Add(l.wl.due[k])); wait > 0 {
					time.Sleep(wait)
				}
				queue <- dispatch{k: k, late: time.Since(start) - l.wl.due[k]}
			}
		}()
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for d := range queue {
					exec(w, d.k, l.wl.due[d.k], d.late)
				}
			}(w)
		}
	}
	wg.Wait()
	close(stop)
	<-sampled
	win := window{wall: time.Since(start)}
	win.marks = append(marks, mark{at: win.wall, processCounters: readCounters()})
	for _, o := range per {
		win.outcomes = append(win.outcomes, o...)
	}
	return win
}

// replayTables sends tables one at a time, before timing, and fails on
// the first request that is not answered correctly.
func replayTables(ctx context.Context, client *http.Client, url string, wl *workload, idx []int, tag string) error {
	for i, ti := range idx {
		t := wl.tables[ti]
		status, body, err := send(ctx, client, url, t, tag+"-"+strconv.Itoa(i))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil {
			var resp *gateway.BatchResponse
			if resp, err = decodeAnswer(body); err == nil {
				err = checkAnswer(t, resp)
			}
		}
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}
